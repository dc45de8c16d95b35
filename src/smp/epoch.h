// Epoch-based reclamation (EBR) for the kernel's read-mostly structures —
// the classic three-epoch scheme (Fraser'04; the same grace-period contract
// as Linux RCU, with epochs standing in for context-switch quiescence).
//
// The contract:
//
//   Readers  enter a critical section with an EpochGuard. Inside it, any
//            pointer loaded (acquire) from an epoch-published location stays
//            valid until the guard drops, even if a writer concurrently
//            unpublishes and retires it. The outermost guard on a thread
//            is one atomic RMW on a per-CPU pin slot plus an uncontended
//            per-CPU store; a nested guard only bumps a thread-local depth.
//            It never takes a lock and never spins, so readers cannot
//            block on writers (or on each other).
//
//   Writers  serialize among themselves however they like (the kernel keeps
//            its ranked leaf locks for that), and replace state in two
//            steps: PUBLISH the new value with release ordering first, THEN
//            Retire() the old object. Retire defers the reclaim callback
//            until every reader that could still hold the old pointer has
//            unpinned — it never runs the callback inline.
//
//   Grace    The global epoch E advances only when every pinned slot has
//            observed E (TryAdvance). An object retired in epoch E is
//            reclaimed once the epoch reaches E+2: readers pinned in E may
//            hold it through the advance to E+1, but any slot pinned at
//            E+1 pinned after the advance — and therefore after the
//            unpublish that preceded the retire — so by E+2 no pinned
//            reader can still reference it.
//
//   Quiesce  Grace periods are driven from syscall exit: the kernel calls
//            QuiescentState() on every return to user mode (no guard held,
//            no kernel lock held), which periodically attempts an advance
//            and reclaims whatever became safe. There is no reclaim thread.
//
// Epochs pin NO LockRank: an EpochGuard may be held while acquiring any
// ranked lock and vice versa, and the LockOrderChecker does not see it.
// The only rule is that a thread must not sit pinned indefinitely (a pinned
// slot stalls the epoch and reclamation backs up) — syscall-scoped guards
// satisfy this by construction. See docs/CONCURRENCY.md §5.
#ifndef SVA_SRC_SMP_EPOCH_H_
#define SVA_SRC_SMP_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/smp/percpu.h"
#include "src/smp/sync.h"

namespace sva::smp {

class EpochDomain {
 public:
  // The process-global domain. Every epoch-published structure in the
  // process shares it: grace periods are a global property of the readers,
  // so splitting domains per kernel instance would only multiply the
  // bookkeeping without shortening any grace period.
  static EpochDomain& Global() {
    static EpochDomain domain;
    return domain;
  }

  // Runs every pending retiree when the process-global domain is torn down
  // at exit, so deferred frees are not lost with the retire lists. Skipped
  // if a reader is still pinned (a thread outliving static destruction).
  ~EpochDomain();

  // The current global epoch (relaxed; for cache tags and diagnostics).
  uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }

  // --- Read side (use EpochGuard, not these) --------------------------------
  // Pins the calling thread's CPU slot. Only the thread's outermost Pin
  // touches the slot (the pin count RMW and the epoch snapshot); nested
  // pins and unpins move a thread-local depth, and the outermost Unpin
  // releases the slot the outermost Pin took.
  void Pin();
  void Unpin();

  // --- Write side -----------------------------------------------------------
  // Defers `reclaim` until two epoch advances from now. The caller must
  // have already unpublished every epoch-visible pointer to the dying
  // object (with release ordering) — publish-then-retire, never the
  // reverse. Never runs `reclaim` inline; safe to call with locks held.
  void Retire(std::function<void()> reclaim);

  // Attempts one epoch advance; on success reclaims everything whose grace
  // period has elapsed. Returns false if a pinned reader still sits in an
  // older epoch (or another thread is advancing). Must be called with no
  // EpochGuard held. Reclaim callbacks run on this thread, with whatever
  // locks the caller holds — call it lock-free (the kernel does, from the
  // syscall-exit quiescent hook).
  bool TryAdvance();

  // The syscall-exit hook: cheap counter tick; every kQuiescentStride-th
  // call with retirees pending attempts an advance.
  void QuiescentState();

  // Blocks (spinning) until every currently pending retiree is reclaimed.
  // Callers must guarantee the pinned-reader population drains (teardown
  // paths: all worker threads joined). Used by ~Kernel so deferred frees
  // that capture allocator references run before the allocators die.
  void Synchronize();

  // Best-effort drain for destructors that cannot rule out concurrent
  // readers: reclaims what it can while nothing is pinned, gives up
  // immediately otherwise.
  void DrainIfQuiescent();

  // --- Observability (exported as sva_epoch_* on /metrics) ------------------
  uint64_t advances() const {
    return advances_.load(std::memory_order_relaxed);
  }
  uint64_t retired() const { return retired_.load(std::memory_order_relaxed); }
  uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  uint64_t pending() const { return retired() - reclaimed(); }
  // Gauge: readers currently pinned across all slots (0 at quiescence).
  uint64_t pinned_readers() const;

  static constexpr uint32_t kQuiescentStride = 64;

 private:
  EpochDomain() = default;

  // One pin slot per CPU, cache-line-padded: Pin/Unpin are uncontended RMWs
  // on the caller's own line. Oversubscribed threads sharing a slot only
  // make the epoch snapshot more conservative (the slot keeps the oldest
  // active pin's epoch), never unsafe.
  struct alignas(kCacheLineBytes) PinSlot {
    std::atomic<uint32_t> pins{0};
    std::atomic<uint64_t> epoch{0};
  };

  struct Retiree {
    std::function<void()> reclaim;
    uint64_t epoch = 0;
  };

  // Per-CPU retire lists: Retire appends to the caller's CPU list under a
  // short unranked leaf lock (writers only — readers never touch these).
  struct alignas(kCacheLineBytes) RetireList {
    SpinLock lock;
    std::vector<Retiree> items;
  };

  // Detaches every retiree with epoch <= `limit` and runs the callbacks
  // outside the list locks. Returns the count reclaimed.
  uint64_t ReclaimUpTo(uint64_t limit);

  std::atomic<uint64_t> global_epoch_{1};
  PinSlot slots_[kMaxCpus];
  RetireList retire_[kMaxCpus];
  SpinLock advance_lock_;  // Serializes TryAdvance; contenders skip.
  std::atomic<uint64_t> advances_{0};
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

// RAII read-side critical section. Cheap enough for every syscall: the
// outermost guard on a thread costs one fetch_add, one fetch_sub and an
// epoch snapshot store on this CPU's own cache line; guards nested inside
// it cost a thread-local increment and decrement.
class EpochGuard {
 public:
  EpochGuard() { EpochDomain::Global().Pin(); }
  ~EpochGuard() { EpochDomain::Global().Unpin(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
};

// Convenience: retire a heap object for deferred delete.
template <typename T>
void RetireDelete(T* object) {
  EpochDomain::Global().Retire([object] { delete object; });
}

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_EPOCH_H_
