// Per-thread single-writer counter shards (docs/CONCURRENCY.md §4).
//
// A PerCpu slot is shared by every thread bound to its CPU id (and unbound
// threads all read CPU 0), so its counters need atomic read-modify-writes to
// stay exact under oversubscription; on x86 each one is a `lock xadd`.
// ThreadShards<T> instead gives every thread that touches it a shard of its
// own. Only that thread writes it, so a bump is a relaxed load plus a relaxed
// store (Bump below) — exact however threads share CPUs, with no locked
// instruction. Readers fold every shard with relaxed loads (ForEach); the
// fold is exact at quiescence.
//
// A shard outlives its thread: at thread exit it returns to its registry's
// free list with its counts intact, so the fold still sees a joined
// thread's work, and the next new thread continues counting in it. The
// registry therefore holds at most as many shards as threads ever touched
// the set at once, however many come and go.
//
// The hot path is one thread-local table probe keyed by the set's id, which
// is never reused, so a table entry left behind by a destroyed set can never
// match a later one. A miss (first touch, or a colliding set evicted the
// entry) takes the registry's lock. Do not touch a set from a thread_local
// destructor: the thread's claim list may already be gone.
#ifndef SVA_SRC_SMP_THREAD_SHARDS_H_
#define SVA_SRC_SMP_THREAD_SHARDS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/smp/sync.h"

namespace sva::smp {

// Single-writer increment: only the shard's owning thread may call it.
inline void Bump(uint64_t& counter, uint64_t delta = 1) {
  std::atomic_ref<uint64_t> ref(counter);
  ref.store(ref.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

// A relaxed read of a counter another thread may be bumping.
inline uint64_t LoadCounter(const uint64_t& counter) {
  return std::atomic_ref<const uint64_t>(counter).load(
      std::memory_order_relaxed);
}

inline void StoreCounter(uint64_t& counter, uint64_t value) {
  std::atomic_ref<uint64_t>(counter).store(value, std::memory_order_relaxed);
}

namespace internal {

// The type-erased registry a thread's exit hook returns shards to.
class ShardRegistryBase {
 public:
  virtual ~ShardRegistryBase() = default;
  virtual void Release(void* slot) = 0;
};

struct TlsShardEntry {
  uint64_t set_id = 0;  // 0 = empty.
  void* shard = nullptr;
};
inline constexpr size_t kTlsShardEntries = 64;
inline thread_local TlsShardEntry tls_shards[kTlsShardEntries];

// Globally unique, never recycled, never 0.
uint64_t NextShardSetId();
// The calling thread's owner token (stable for the thread's life).
const void* ThreadToken();
// Records that the calling thread claimed `slot` of `registry`, so the
// thread's exit releases it.
void NoteClaim(std::weak_ptr<ShardRegistryBase> registry, void* slot);

}  // namespace internal

template <typename T>
class ThreadShards {
 public:
  ThreadShards()
      : id_(internal::NextShardSetId()),
        registry_(std::make_shared<Registry>()) {}
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;

  // The calling thread's shard. Write it only through Bump/StoreCounter.
  T& Local() {
    internal::TlsShardEntry& e =
        internal::tls_shards[id_ % internal::kTlsShardEntries];
    if (e.set_id == id_) [[likely]] {
      return *static_cast<T*>(e.shard);
    }
    return Claim();
  }

  // Calls fn(const T&) on every shard, live or released.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<SpinLock> guard(registry_->lock);
    for (const auto& slot : registry_->slots) {
      fn(static_cast<const T&>(slot->value));
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    std::lock_guard<SpinLock> guard(registry_->lock);
    for (const auto& slot : registry_->slots) {
      fn(slot->value);
    }
  }

  // Shards in the registry: the most threads that held one at once.
  size_t shard_count() const {
    std::lock_guard<SpinLock> guard(registry_->lock);
    return registry_->slots.size();
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    T value{};
    const void* owner = nullptr;  // Null = free.
  };
  struct Registry : internal::ShardRegistryBase {
    void Release(void* slot) override {
      std::lock_guard<SpinLock> guard(lock);
      static_cast<Slot*>(slot)->owner = nullptr;
    }
    mutable SpinLock lock;
    std::vector<std::unique_ptr<Slot>> slots;
  };

  T& Claim() {
    const void* me = internal::ThreadToken();
    Slot* mine = nullptr;
    bool claimed = false;
    {
      std::lock_guard<SpinLock> guard(registry_->lock);
      Slot* free_slot = nullptr;
      for (const auto& slot : registry_->slots) {
        if (slot->owner == me) {
          mine = slot.get();  // Ours already; its table entry was evicted.
          break;
        }
        if (slot->owner == nullptr && free_slot == nullptr) {
          free_slot = slot.get();
        }
      }
      if (mine == nullptr) {
        if (free_slot == nullptr) {
          registry_->slots.push_back(std::make_unique<Slot>());
          free_slot = registry_->slots.back().get();
        }
        mine = free_slot;
        mine->owner = me;
        claimed = true;
      }
    }
    if (claimed) {
      internal::NoteClaim(registry_, mine);
    }
    internal::tls_shards[id_ % internal::kTlsShardEntries] = {id_,
                                                              &mine->value};
    return mine->value;
  }

  const uint64_t id_;
  const std::shared_ptr<Registry> registry_;
};

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_THREAD_SHARDS_H_
