// Per-CPU data for the virtual multiprocessor.
//
// Worker threads bind themselves to a virtual CPU id (ScopedCpu); per-CPU
// containers (PerCpu<T>) then index by that id so hot-path counters and
// scratch state never share cache lines between CPUs. This mirrors the
// kernel idiom (DEFINE_PER_CPU / smp_processor_id) the paper's SVA-OS
// per-processor state assumes.
//
// The binding is advisory: an unbound thread reads CPU 0. Slots written
// through Shard() use relaxed atomic read-modify-writes, so even two
// threads bound to the same id (oversubscription) stay race-free — they
// merely contend.
#ifndef SVA_SRC_SMP_PERCPU_H_
#define SVA_SRC_SMP_PERCPU_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/smp/sync.h"

namespace sva::smp {

// Upper bound on virtual CPUs. Sized for the 1/2/4/8-thread scaling study
// with headroom; per-CPU state is padded, so keep this modest.
inline constexpr unsigned kMaxCpus = 16;

namespace internal {
inline thread_local unsigned tls_cpu_id = 0;
}  // namespace internal

// The virtual CPU id the calling thread is bound to (0 if never bound).
inline unsigned current_cpu_id() { return internal::tls_cpu_id; }

inline void SetCurrentCpu(unsigned id) {
  internal::tls_cpu_id = id < kMaxCpus ? id : kMaxCpus - 1;
}

// RAII binding of the calling thread to a virtual CPU id.
class ScopedCpu {
 public:
  explicit ScopedCpu(unsigned id) : previous_(current_cpu_id()) {
    SetCurrentCpu(id);
  }
  ~ScopedCpu() { SetCurrentCpu(previous_); }
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  unsigned previous_;
};

// A fixed array of cache-line-padded T, one per possible CPU.
template <typename T>
class PerCpu {
 public:
  T& ForCpu(unsigned id) { return slots_[id % kMaxCpus].value; }
  const T& ForCpu(unsigned id) const { return slots_[id % kMaxCpus].value; }
  T& Current() { return ForCpu(current_cpu_id()); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (unsigned i = 0; i < kMaxCpus; ++i) {
      fn(slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (unsigned i = 0; i < kMaxCpus; ++i) {
      fn(slots_[i].value);
    }
  }

 private:
  struct alignas(kCacheLineBytes) Padded {
    T value{};
  };
  std::array<Padded, kMaxCpus> slots_{};
};

// A per-CPU sharded uint64 counter. Increments are relaxed atomic RMWs on
// the caller's CPU slot (no contention across bound CPUs, race-free even
// when oversubscribed); value() sums all shards. A count that goes up on
// one CPU and down on another leaves shards that wrap below zero; their
// sum is still exact in modular arithmetic.
class ShardedCounter {
 public:
  void Add(uint64_t delta = 1) {
    shards_.Current().fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(uint64_t delta = 1) {
    shards_.Current().fetch_sub(delta, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    shards_.ForEach([&total](const std::atomic<uint64_t>& shard) {
      total += shard.load(std::memory_order_relaxed);
    });
    return total;
  }
  void Reset() {
    shards_.ForEachMutable([](std::atomic<uint64_t>& shard) {
      shard.store(0, std::memory_order_relaxed);
    });
  }

 private:
  PerCpu<std::atomic<uint64_t>> shards_;
};

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_PERCPU_H_
