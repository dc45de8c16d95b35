#include "src/trace/trace.h"

#include <cassert>
#include <chrono>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace sva::trace {
namespace {

// Packs/unpacks event word 1: dur | id<<32 | phase<<48 | cpu<<56.
uint64_t PackWord1(uint32_t dur_ns, EventId id, Phase phase, uint8_t cpu) {
  return static_cast<uint64_t>(dur_ns) |
         static_cast<uint64_t>(static_cast<uint16_t>(id)) << 32 |
         static_cast<uint64_t>(static_cast<uint8_t>(phase)) << 48 |
         static_cast<uint64_t>(cpu) << 56;
}

void UnpackWord1(uint64_t w1, Event* e) {
  e->dur_ns = static_cast<uint32_t>(w1);
  e->id = static_cast<EventId>(static_cast<uint16_t>(w1 >> 32));
  e->phase = static_cast<Phase>(static_cast<uint8_t>(w1 >> 48));
  e->cpu = static_cast<uint8_t>(w1 >> 56);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

const char* EventName(EventId id) {
  switch (id) {
    case EventId::kPchkRegObj: return "pchk.reg.obj";
    case EventId::kPchkDropObj: return "pchk.drop.obj";
    case EventId::kBoundsCheck: return "boundscheck";
    case EventId::kLoadStoreCheck: return "lscheck";
    case EventId::kIndirectCallCheck: return "indirect-call-check";
    case EventId::kSplayRotation: return "splay-rotation";
    case EventId::kCacheHit: return "pool-cache-hit";
    case EventId::kCacheMiss: return "pool-cache-miss";
    case EventId::kInterrupt: return "interrupt";
    case EventId::kKernelEntry: return "kernel-entry";
    case EventId::kKernelExit: return "sva.iret";
    case EventId::kSvaosDispatch: return "svaos-dispatch";
    case EventId::kSaveInteger: return "sva.save.integer";
    case EventId::kLoadInteger: return "sva.load.integer";
    case EventId::kMmuOp: return "mmu-op";
    case EventId::kIoOp: return "io-op";
    case EventId::kTlbShootdown: return "tlb-shootdown";
    case EventId::kSyscall: return "syscall";
    case EventId::kLockWait: return "lock-wait";
    case EventId::kPageFault: return "page-fault";
    case EventId::kFork: return "fork";
    case EventId::kExec: return "execve";
    case EventId::kNicRxIrq: return "nic-rx-irq";
    case EventId::kNicTx: return "nic-tx";
    case EventId::kNicRxDeliver: return "nic-rx-deliver";
    case EventId::kNicDma: return "nic-dma";
    case EventId::kNapiPoll: return "napi-poll";
    case EventId::kEvqWait: return "evq-wait";
    case EventId::kEvqWakeup: return "evq-wakeup";
    case EventId::kConnAccept: return "conn-accept";
    case EventId::kConnClose: return "conn-close";
    case EventId::kConnForked: return "conn-forked";
    case EventId::kProfSample: return "prof.sample";
    case EventId::kNumIds: break;
  }
  return "unknown";
}

namespace internal {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

#if defined(__x86_64__)
// How long the TSC is timed against steady_clock. Each end is one tight
// (tsc, ns) pair good to ~50 ns, so 2 ms fixes the rate to ~0.005%.
constexpr uint64_t kCalibrationNs = 2'000'000;

struct ClockPair {
  uint64_t tsc = 0;
  uint64_t ns = 0;
};

// A steady_clock read bracketed by two TSC reads; the tightest bracket of a
// few tries, so a preemption mid-pair cannot skew the calibration.
ClockPair ReadClockPair() {
  ClockPair best;
  uint64_t best_gap = UINT64_MAX;
  for (int i = 0; i < 8; ++i) {
    uint64_t before = __rdtsc();
    uint64_t ns = SteadyNowNs();
    uint64_t after = __rdtsc();
    if (after - before < best_gap) {
      best_gap = after - before;
      best = {before + (after - before) / 2, ns};
    }
  }
  return best;
}

// CPUID 0x80000007 EDX bit 8: the TSC ticks at a constant rate in every
// P-/C-state, so it can stand in for a clock.
bool InvariantTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) != 0 &&
         (edx & (1u << 8)) != 0;
}

TscClock CalibrateTsc() {
  if (!InvariantTsc()) {
    return {};
  }
  ClockPair p0 = ReadClockPair();
  while (SteadyNowNs() - p0.ns < kCalibrationNs) {
    smp::CpuRelax();
  }
  ClockPair p1 = ReadClockPair();
  if (p1.tsc <= p0.tsc) {
    return {};
  }
  double ns_per_tick = static_cast<double>(p1.ns - p0.ns) /
                       static_cast<double>(p1.tsc - p0.tsc);
  return {p0.tsc, p0.ns,
          static_cast<uint64_t>(ns_per_tick * 4294967296.0 + 0.5)};
}
#else
TscClock CalibrateTsc() { return {}; }
#endif

}  // namespace

const TscClock g_tsc = CalibrateTsc();

}  // namespace internal

void EventRing::Reset(size_t capacity_pow2) {
  assert((capacity_pow2 & (capacity_pow2 - 1)) == 0 && capacity_pow2 != 0);
  if (capacity_ != capacity_pow2) {
    slots_ = std::make_unique<Slot[]>(capacity_pow2);
    capacity_ = capacity_pow2;
  } else {
    for (size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(0, std::memory_order_relaxed);
    }
  }
  next_.store(0, std::memory_order_relaxed);
  drained_ = 0;
  lost_ = 0;
}

void EventRing::Record(const Event& e) {
  if (capacity_ == 0) {
    return;
  }
  uint64_t pos = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & (capacity_ - 1)];
  // Busy marker first, then the payload, then the done marker with release
  // so the drainer's acquire load of seq orders the payload reads.
  slot.seq.store(2 * pos + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(e.ts_ns, std::memory_order_relaxed);
  slot.w[1].store(PackWord1(e.dur_ns, e.id, e.phase, e.cpu),
                  std::memory_order_relaxed);
  slot.w[2].store(e.a0, std::memory_order_relaxed);
  slot.w[3].store(e.a1, std::memory_order_relaxed);
  slot.seq.store(2 * pos + 2, std::memory_order_release);
}

uint64_t EventRing::Drain(std::vector<Event>* out) {
  if (capacity_ == 0) {
    return 0;
  }
  uint64_t hi = next_.load(std::memory_order_acquire);
  uint64_t lo = drained_;
  uint64_t lost = 0;
  // Positions that wrapped out of the window before we got here are gone.
  if (hi > capacity_ && hi - capacity_ > lo) {
    lost += hi - capacity_ - lo;
    lo = hi - capacity_;
  }
  for (uint64_t pos = lo; pos < hi; ++pos) {
    Slot& slot = slots_[pos & (capacity_ - 1)];
    uint64_t want = 2 * pos + 2;
    uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != want) {
      ++lost;  // Overwritten by a wrap, or the producer is still writing.
      continue;
    }
    Event e;
    e.ts_ns = slot.w[0].load(std::memory_order_relaxed);
    uint64_t w1 = slot.w[1].load(std::memory_order_relaxed);
    e.a0 = slot.w[2].load(std::memory_order_relaxed);
    e.a1 = slot.w[3].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != want) {
      ++lost;  // Torn: a wrapping producer got in during the copy.
      continue;
    }
    UnpackWord1(w1, &e);
    out->push_back(e);
  }
  drained_ = hi;
  lost_ += lost;
  return lost;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(uint32_t mode_bits, size_t ring_capacity) {
  size_t capacity = ring_capacity == 0 ? EventRing::kDefaultCapacity
                                       : RoundUpPow2(ring_capacity);
  rings_.ForEachMutable(
      [capacity](EventRing& ring) { ring.Reset(capacity); });
  capacity_ = capacity;
  lost_.store(0, std::memory_order_relaxed);
  internal::g_mode.store(mode_bits, std::memory_order_release);
}

void Tracer::Disable() {
  internal::g_mode.store(kModeOff, std::memory_order_release);
}

void Tracer::Reset() {
  Disable();
  rings_.ForEachMutable([this](EventRing& ring) {
    if (ring.capacity() != 0) {
      ring.Reset(ring.capacity());
    }
  });
  lost_.store(0, std::memory_order_relaxed);
  Metrics::Get().Reset();
}

void Tracer::Record(EventId id, Phase phase, uint64_t ts_ns, uint64_t dur_ns,
                    uint64_t a0, uint64_t a1) {
  Event e;
  e.ts_ns = ts_ns;
  // Spans longer than ~4.29s saturate the 32-bit duration field.
  e.dur_ns = dur_ns > UINT32_MAX ? UINT32_MAX
                                 : static_cast<uint32_t>(dur_ns);
  e.id = id;
  e.phase = phase;
  e.cpu = static_cast<uint8_t>(smp::current_cpu_id());
  e.a0 = a0;
  e.a1 = a1;
  rings_.ForCpu(e.cpu).Record(e);
}

std::vector<Event> Tracer::Drain() {
  std::lock_guard<smp::SpinLock> guard(drain_lock_);
  std::vector<Event> out;
  uint64_t lost = 0;
  // ForEachMutable walks CPUs in id order and each ring drains oldest-first,
  // so `out` is ordered by (cpu, ts) — one monotonic track per CPU.
  rings_.ForEachMutable(
      [&out, &lost](EventRing& ring) { lost += ring.Drain(&out); });
  lost_.fetch_add(lost, std::memory_order_relaxed);
  return out;
}

uint64_t Tracer::events_recorded() const {
  uint64_t total = 0;
  rings_.ForEach(
      [&total](const EventRing& ring) { total += ring.recorded(); });
  return total;
}

}  // namespace sva::trace
