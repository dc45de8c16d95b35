// Lock-order checking for the kernel lock hierarchy (docs/CONCURRENCY.md).
//
// Every kernel-policy lock carries a LockRank; a thread must acquire ranked
// locks in strictly increasing rank order (which also forbids recursive
// acquisition). The ordering that matters for deadlock freedom is the one
// that is actually executed, so the checker keeps a per-thread stack of held
// ranks and validates every acquisition against it *before* blocking on the
// lock — an inversion is reported while the thread can still report it,
// instead of as a silent deadlock.
//
// Debug builds (NDEBUG undefined) enforce on every acquisition and abort on
// inversion. Release builds compile the bookkeeping in but leave the checker
// disabled behind a single relaxed load; tests flip it on at quiescence
// (LockOrderChecker::set_enabled) to exercise the enforcement in tier-1
// RelWithDebInfo builds too.
//
// Locks outside the kernel policy hierarchy — metapool stripe locks,
// allocator locks, the net stack's three lock classes, trace drain locks —
// are deliberately unranked: they are leaves of independent subsystems that
// never call back into kernel locks, so ranking them would only add noise.
// The invariant the checker protects is the kernel's own order:
//
//   vfs_lock_ -> Inode::lock -> tasks_lock_ -> Pipe::lock -> evq_lock_
//             -> files_lock_ -> address-space locks
#ifndef SVA_SRC_SMP_LOCK_ORDER_H_
#define SVA_SRC_SMP_LOCK_ORDER_H_

#include <atomic>
#include <cstdint>

#include "src/smp/sync.h"

namespace sva::smp {

// Ranks are spaced so a future subsystem lock can slot between existing
// levels without renumbering. Lower rank = acquired earlier (outermost).
enum class LockRank : uint8_t {
  kVfs = 10,    // vfs_lock_: ramfs namespace (create, unlink, dir index).
  kInode = 15,  // Inode::lock: one file's blocks, size and open offsets.
  kTasks = 20,  // tasks_lock_: pid->task map structure, pid allocation.
  kPipes = 40,  // Pipe::lock: one pipe's ring state.
  kEvq = 45,    // evq_lock_: event-queue table + sid->watch reverse map.
  kFiles = 50,  // files_lock_: fd-slot writers (shared leaf).
  // Per-task address-space locks rank ABOVE every table lock: user-copy
  // page faults happen while inode/pipe/files locks are held, so the fault
  // path (FaultIn under the AS lock) must still be acquirable there.
  kAddrSpace = 60,
};

const char* LockRankName(LockRank rank);

class LockOrderChecker {
 public:
  // Compile-time default: enforcing in debug builds, dormant in release.
#ifndef NDEBUG
  static constexpr bool kEnabledByDefault = true;
#else
  static constexpr bool kEnabledByDefault = false;
#endif

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  // Control-plane toggle (tests): flip only while no ranked lock is held.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Validates `rank` against the calling thread's held set and pushes it.
  // Fatal (abort) if any held rank is >= `rank`.
  static void NoteAcquire(LockRank rank) {
    if (!enabled()) {
      return;
    }
    HeldStack& held = Held();
    for (int i = 0; i < held.depth; ++i) {
      if (static_cast<uint8_t>(rank) <= held.ranks[i]) {
        FatalInversion(rank, held.ranks, held.depth);
      }
    }
    if (held.depth < kMaxHeld) {
      held.ranks[held.depth] = static_cast<uint8_t>(rank);
      ++held.depth;
    }
    checked_.fetch_add(1, std::memory_order_relaxed);
    per_rank_[static_cast<uint8_t>(rank) % kRankSlots].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Removes the most recent entry for `rank` (scoped guards release LIFO;
  // a missing entry — checker enabled mid-hold — is ignored).
  static void NoteRelease(LockRank rank) {
    HeldStack& held = Held();
    for (int i = held.depth - 1; i >= 0; --i) {
      if (held.ranks[i] == static_cast<uint8_t>(rank)) {
        for (int j = i; j + 1 < held.depth; ++j) {
          held.ranks[j] = held.ranks[j + 1];
        }
        --held.depth;
        return;
      }
    }
  }

  // Ranked locks the calling thread currently holds (0 at syscall exit).
  static int held_depth() { return Held().depth; }
  // Process-wide count of validated acquisitions (test observability).
  static uint64_t acquisitions_checked() {
    return checked_.load(std::memory_order_relaxed);
  }
  // Validated acquisitions of one specific rank. Lets a test prove a code
  // path is lock-free with respect to a given kernel lock: enable the
  // checker, snapshot acquisitions_of(kFiles), run the path, assert the
  // count did not move (the epoch torture test does exactly this for
  // kFiles and kVfs on the fd-read / path-lookup fast paths).
  static uint64_t acquisitions_of(LockRank rank) {
    return per_rank_[static_cast<uint8_t>(rank) % kRankSlots].load(
        std::memory_order_relaxed);
  }

 private:
  static constexpr int kMaxHeld = 8;
  struct HeldStack {
    uint8_t ranks[kMaxHeld] = {};
    int depth = 0;
  };
  static HeldStack& Held() {
    thread_local HeldStack held;
    return held;
  }
  [[noreturn]] static void FatalInversion(LockRank incoming,
                                          const uint8_t* held, int depth);

  // Ranks are sparse uint8 values (max today: kAddrSpace = 60); one slot
  // per possible value keeps acquisitions_of O(1) with no registration.
  static constexpr int kRankSlots = 64;

  inline static std::atomic<bool> enabled_{kEnabledByDefault};
  inline static std::atomic<uint64_t> checked_{0};
  inline static std::atomic<uint64_t> per_rank_[kRankSlots]{};
};

// A SpinLock that participates in the rank order above. Meets the C++
// Lockable requirements, so std::lock_guard and trace::TimedLockGuard work
// unchanged.
class OrderedSpinLock {
 public:
  explicit OrderedSpinLock(LockRank rank) : rank_(rank) {}
  OrderedSpinLock(const OrderedSpinLock&) = delete;
  OrderedSpinLock& operator=(const OrderedSpinLock&) = delete;

  void lock() {
    LockOrderChecker::NoteAcquire(rank_);
    lock_.lock();
  }
  bool try_lock() {
    if (!lock_.try_lock()) {
      return false;
    }
    LockOrderChecker::NoteAcquire(rank_);
    return true;
  }
  void unlock() {
    lock_.unlock();
    LockOrderChecker::NoteRelease(rank_);
  }
  LockRank rank() const { return rank_; }

 private:
  SpinLock lock_;
  LockRank rank_;
};

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_LOCK_ORDER_H_
