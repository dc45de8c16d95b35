#include "src/smp/epoch.h"

#include <cstdint>
#include <mutex>
#include <utility>

namespace sva::smp {

EpochDomain::~EpochDomain() {
  if (pinned_readers() == 0) {
    reclaimed_.fetch_add(ReclaimUpTo(UINT64_MAX), std::memory_order_relaxed);
  }
}

namespace {
// The calling thread's pin: how many EpochGuards it holds and the slot the
// outermost one pinned. Nested guards (one syscall holds three) only move
// the depth, so they cost no atomic and no shared-line write.
struct ThreadPin {
  uint32_t depth = 0;
  int slot = 0;
};
thread_local ThreadPin tls_pin;
}  // namespace

void EpochDomain::Pin() {
  if (tls_pin.depth++ != 0) {
    return;
  }
  const int index = static_cast<int>(current_cpu_id() % kMaxCpus);
  tls_pin.slot = index;
  PinSlot& slot = slots_[index];
  // seq_cst RMW: the StoreLoad edge between publishing pins > 0 and loading
  // the global epoch is what stops TryAdvance from racing past a reader
  // that pinned "just now" with a stale epoch snapshot. (A stale snapshot
  // is always <= the true epoch, so the race would only be conservative —
  // but the seq_cst RMW costs the same as acq_rel on x86 and keeps the
  // argument one sentence long.)
  if (slot.pins.fetch_add(1, std::memory_order_seq_cst) == 0) {
    slot.epoch.store(global_epoch_.load(std::memory_order_seq_cst),
                     std::memory_order_seq_cst);
  }
}

void EpochDomain::Unpin() {
  if (--tls_pin.depth != 0) {
    return;
  }
  // Release: everything this reader did (every load through a retired
  // pointer) happens-before a later advance observing pins == 0. The slot
  // is the one the outermost Pin took, even if the thread rebound its CPU
  // id since.
  slots_[tls_pin.slot].pins.fetch_sub(1, std::memory_order_release);
}

void EpochDomain::Retire(std::function<void()> reclaim) {
  RetireList& list = retire_[current_cpu_id() % kMaxCpus];
  const uint64_t epoch = global_epoch_.load(std::memory_order_relaxed);
  {
    std::lock_guard<SpinLock> guard(list.lock);
    list.items.push_back(Retiree{std::move(reclaim), epoch});
  }
  retired_.fetch_add(1, std::memory_order_relaxed);
}

bool EpochDomain::TryAdvance() {
  if (!advance_lock_.try_lock()) {
    return false;
  }
  std::lock_guard<SpinLock> guard(advance_lock_, std::adopt_lock);
  const uint64_t current = global_epoch_.load(std::memory_order_seq_cst);
  for (PinSlot& slot : slots_) {
    // Acquire on pins pairs with the reader's release Unpin, so a slot seen
    // unpinned has fully retired from its critical section.
    if (slot.pins.load(std::memory_order_acquire) != 0 &&
        slot.epoch.load(std::memory_order_seq_cst) != current) {
      return false;  // A reader still straddles the previous epoch.
    }
  }
  global_epoch_.store(current + 1, std::memory_order_seq_cst);
  advances_.fetch_add(1, std::memory_order_relaxed);
  // After advancing to current+1, anything retired at <= current-1 has
  // outlived its grace period: every slot pinned today snapshotted either
  // `current` (after the unpublish that preceded a retire at current-1) or
  // `current+1`.
  reclaimed_.fetch_add(ReclaimUpTo(current - 1), std::memory_order_relaxed);
  return true;
}

uint64_t EpochDomain::ReclaimUpTo(uint64_t limit) {
  std::vector<std::function<void()>> ready;
  for (RetireList& list : retire_) {
    std::lock_guard<SpinLock> guard(list.lock);
    size_t kept = 0;
    for (Retiree& r : list.items) {
      if (r.epoch <= limit) {
        ready.push_back(std::move(r.reclaim));
      } else {
        list.items[kept++] = std::move(r);
      }
    }
    list.items.resize(kept);
  }
  // Callbacks run outside every list lock: a reclaimer is free to Retire()
  // again (e.g. a table whose teardown retires its entries).
  for (auto& fn : ready) {
    fn();
  }
  return ready.size();
}

void EpochDomain::QuiescentState() {
  thread_local uint32_t tick = 0;
  if (++tick % kQuiescentStride != 0) {
    return;
  }
  if (pending() == 0) {
    return;
  }
  TryAdvance();
}

void EpochDomain::Synchronize() {
  // Two advances from the retiree's epoch always suffice, but pinned
  // readers (which the caller promised are draining) can hold an advance
  // back — just spin until the pending count hits zero.
  while (pending() != 0) {
    if (!TryAdvance()) {
      CpuRelax();
    }
  }
}

void EpochDomain::DrainIfQuiescent() {
  for (int attempt = 0; attempt < 3 && pending() != 0; ++attempt) {
    if (pinned_readers() != 0 || !TryAdvance()) {
      return;
    }
  }
}

uint64_t EpochDomain::pinned_readers() const {
  uint64_t total = 0;
  for (const PinSlot& slot : slots_) {
    total += slot.pins.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace sva::smp
