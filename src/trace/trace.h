// Low-overhead event tracing for the SVA reproduction, ftrace/LTTng style.
//
// Static tracepoints compiled into the hot layers (metapool checks, SVA-OS
// ops, kernel syscalls, NIC datapath) cost one relaxed atomic load and a
// predictable branch when tracing is off. When enabled, events go into
// per-CPU lock-free ring buffers with flight-recorder (overwrite) semantics:
// producers never block and never wait for the reader; old events are
// overwritten and counted as lost.
//
// Slot protocol (seqlock-per-slot, multi-producer safe): a producer claims a
// global position with a relaxed fetch_add, marks the slot busy
// (seq = 2*pos+1), publishes the payload words, then marks it done
// (seq = 2*pos+2, release). The drainer accepts a slot only if it reads the
// done value for the expected position before AND after copying the payload;
// anything else (overwritten, mid-write) counts as lost. Payload words are
// themselves atomics so concurrent overwrite is a counted race, not UB.
//
// Enabling, disabling, and draining are control-plane operations: callers
// must not resize rings while producers are mid-tracepoint (the same
// quiescence rule MetaPoolRuntime::stats() documents).
#ifndef SVA_SRC_TRACE_TRACE_H_
#define SVA_SRC_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/smp/percpu.h"
#include "src/trace/metrics.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sva::trace {

// Every static tracepoint in the tree. Names (EventName) follow the paper's
// intrinsic spelling where one exists (pchk.reg.obj, sva.save.integer, ...).
enum class EventId : uint16_t {
  // Metapool runtime.
  kPchkRegObj = 0,     // pchk.reg.obj: a0 = start, a1 = length
  kPchkDropObj,        // pchk.drop.obj: a0 = start
  kBoundsCheck,        // a0 = src, a1 = derived
  kLoadStoreCheck,     // a0 = address
  kIndirectCallCheck,  // a0 = target
  kSplayRotation,      // a0 = rotations this lookup
  kCacheHit,           // a0 = address
  kCacheMiss,          // a0 = address
  // SVA-OS.
  kInterrupt,       // a0 = vector
  kKernelEntry,     // interrupt/syscall entry into kernel context
  kKernelExit,      // sva.iret
  kSvaosDispatch,   // a0 = syscall number (SVA-OS trap dispatch)
  kSaveInteger,     // sva.save.integer: a0 = buffer
  kLoadInteger,     // sva.load.integer: a0 = buffer
  kMmuOp,           // a0 = vaddr, a1 = op (0=map 1=unmap 2=loadpt 3=reserve
                    //                      4=protect 5=declare-frame-type)
  kIoOp,            // a0 = port/addr, a1 = 0 read / 1 write
  kTlbShootdown,    // a0 = asid, a1 = vaddr (0 for a full-asid flush)
  // Minikernel.
  kSyscall,    // a0 = syscall number
  kLockWait,   // a0 = lock id (kLockPipes / kLockVfs / kLockTasks)
  kPageFault,  // demand-paging fault span: a0 = vaddr, a1 = 1 if write
  kFork,       // fork span: a0 = parent pid
  kExec,       // execve span: a0 = pid
  // NIC + net stack.
  kNicRxIrq,      // rx interrupt handler span
  kNicTx,         // a0 = frame length
  kNicRxDeliver,  // a0 = frame length
  kNicDma,        // a0 = ring slot, a1 = 0 rx / 1 tx
  kNapiPoll,      // a0 = frames harvested this pass, a1 = budget
  // Event queue + connection lifecycle.
  kEvqWait,     // evq_wait span: a0 = evq fd, a1 = events returned
  kEvqWakeup,   // a0 = socket id that became ready
  kConnAccept,  // a0 = accepted fd, a1 = listener fd
  kConnClose,   // a0 = fd
  kConnForked,  // a0 = child pid, a1 = parent pid (per-connection forks)
  // Sampling profiler.
  kProfSample,  // a0 = pid<<32 | depth<<16 | mode<<8 | context, a1 = stack id
  kNumIds,
};

const char* EventName(EventId id);

// Lock ids carried in kLockWait events.
inline constexpr uint64_t kLockPipes = 1;
inline constexpr uint64_t kLockVfs = 2;
inline constexpr uint64_t kLockTasks = 3;

enum class Phase : uint8_t {
  kInstant = 0,  // Point event (Chrome "i").
  kSpan = 1,     // Duration event (Chrome "X"), dur_ns valid.
};

// One decoded trace event. The wire form is 4 uint64 words per ring slot:
// w0 = ts_ns, w1 = dur_ns | id<<32 | phase<<48 | cpu<<56, w2 = a0, w3 = a1.
struct Event {
  uint64_t ts_ns = 0;
  uint32_t dur_ns = 0;
  EventId id = EventId::kNumIds;
  Phase phase = Phase::kInstant;
  uint8_t cpu = 0;
  uint64_t a0 = 0;
  uint64_t a1 = 0;
};

// Tracing mode bits: metrics (histograms) and ring capture are independent.
inline constexpr uint32_t kModeOff = 0;
inline constexpr uint32_t kModeMetrics = 1u << 0;
inline constexpr uint32_t kModeRing = 1u << 1;
inline constexpr uint32_t kModeFull = kModeMetrics | kModeRing;

namespace internal {
inline std::atomic<uint32_t> g_mode{kModeOff};
}  // namespace internal

// The tracepoint fast path: one relaxed load, branch on zero.
inline uint32_t mode() {
  return internal::g_mode.load(std::memory_order_relaxed);
}
inline bool enabled() { return mode() != kModeOff; }

namespace internal {
// TSC-to-nanosecond conversion: ns = ns0 + ((tsc - tsc0) * mult) >> 32.
// trace.cc fixes it once, during static initialisation (so before any boot
// or timed phase), by timing the TSC against steady_clock. mult == 0 means
// no invariant TSC (or a read before that initialiser ran): steady_clock.
struct TscClock {
  uint64_t tsc0 = 0;
  uint64_t ns0 = 0;
  uint64_t mult = 0;
};
extern const TscClock g_tsc;
uint64_t SteadyNowNs();
}  // namespace internal

// Monotonic nanoseconds in the steady_clock domain; the timestamp domain of
// all events. On x86-64 an invariant TSC read scaled to ns instead of a
// steady_clock call (~32 ns against ~45 ns on a 4-vCPU x86-64 VM);
// elsewhere steady_clock. The lfence keeps
// the TSC read from executing ahead of earlier loads: without it a thread
// that has seen another CPU's timestamp can still read an older one.
inline uint64_t NowNs() {
#if defined(__x86_64__)
  const internal::TscClock& c = internal::g_tsc;
  if (c.mult != 0) {
    _mm_lfence();
    return c.ns0 + static_cast<uint64_t>(
                       (static_cast<unsigned __int128>(__rdtsc() - c.tsc0) *
                        c.mult) >> 32);
  }
#endif
  return internal::SteadyNowNs();
}

// One per-CPU ring. Capacity is a power of two; the writer index is a
// monotonically increasing position so lost counts survive wraps.
class EventRing {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  // (Re)initializes the ring. Requires quiescence (no concurrent Record).
  void Reset(size_t capacity_pow2);

  void Record(const Event& e);

  // Appends every event recorded since the last drain to `out`, oldest
  // first; returns how many were lost (overwritten or torn). Single drainer
  // at a time; safe against concurrent producers.
  uint64_t Drain(std::vector<Event>* out);

  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> w[4] = {};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  std::atomic<uint64_t> next_{0};
  uint64_t drained_ = 0;  // Drainer-private cursor.
  uint64_t lost_ = 0;     // Cumulative, maintained by the drainer.
};

// The process-wide tracer: per-CPU rings behind the mode gate.
class Tracer {
 public:
  static Tracer& Get();

  // Allocates/rewinds the rings and opens the gate. Control-plane only:
  // producers must be quiescent.
  void Enable(uint32_t mode_bits, size_t ring_capacity = 0);
  // Closes the gate; recorded events stay drainable.
  void Disable();
  // Disable + drop all recorded events and zero the metrics registry.
  void Reset();

  // Records into the calling CPU's ring. Callers check mode() first.
  void Record(EventId id, Phase phase, uint64_t ts_ns, uint64_t dur_ns,
              uint64_t a0, uint64_t a1);

  // Drains every CPU ring; events ordered by (cpu, ts). One drainer at a
  // time (internally locked); producers may keep recording.
  std::vector<Event> Drain();

  uint64_t events_recorded() const;
  uint64_t events_lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  Tracer() = default;

  smp::PerCpu<EventRing> rings_;
  smp::SpinLock drain_lock_;
  std::atomic<uint64_t> lost_{0};
  size_t capacity_ = 0;
};

// Emits an instant event if ring capture is on.
inline void Emit(EventId id, uint64_t a0 = 0, uint64_t a1 = 0) {
  if ((mode() & kModeRing) == 0) {
    return;
  }
  Tracer::Get().Record(id, Phase::kInstant, NowNs(), 0, a0, a1);
}

// RAII span tracepoint: times its scope, feeding the ring (as a Chrome "X"
// duration event) and/or a latency histogram, per the active mode. A span
// without a histogram is ring-only: in metrics mode it reads no clock.
class Span {
 public:
  explicit Span(EventId id, HistId hist = HistId::kNone, uint64_t a0 = 0,
                uint64_t a1 = 0)
      : mode_(mode() & (hist == HistId::kNone ? kModeRing : kModeFull)) {
    if (mode_ != kModeOff) {
      id_ = id;
      hist_ = hist;
      a0_ = a0;
      a1_ = a1;
      t0_ = NowNs();
    }
  }
  ~Span() {
    if (mode_ == kModeOff) {
      return;
    }
    uint64_t dur = NowNs() - t0_;
    if ((mode_ & kModeMetrics) != 0) {
      Metrics::Get().hist(hist_).Observe(dur);
    }
    if ((mode_ & kModeRing) != 0) {
      Tracer::Get().Record(id_, Phase::kSpan, t0_, dur, a0_, a1_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_args(uint64_t a0, uint64_t a1) {
    a0_ = a0;
    a1_ = a1;
  }

 private:
  uint32_t mode_;
  EventId id_ = EventId::kNumIds;
  HistId hist_ = HistId::kNone;
  uint64_t a0_ = 0;
  uint64_t a1_ = 0;
  uint64_t t0_ = 0;
};

// Lock guard that records how long acquisition blocked (the BKL-vs-leaf-lock
// wait axis): a kLockWait span plus the lock's wait histogram. An
// acquisition that succeeds on the first try_lock() waited 0 ns and reads no
// clock in metrics mode (ring mode still stamps its zero-length span).
template <typename Lock>
class TimedLockGuard {
 public:
  TimedLockGuard(Lock& lock, HistId hist, uint64_t lock_id) : lock_(lock) {
    uint32_t m = mode();
    if (m == kModeOff) {
      lock_.lock();
      return;
    }
    uint64_t t0 = 0;
    uint64_t dur = 0;
    if (!lock_.try_lock()) {
      t0 = NowNs();
      lock_.lock();
      dur = NowNs() - t0;
    } else if ((m & kModeRing) != 0) {
      t0 = NowNs();
    }
    if ((m & kModeMetrics) != 0) {
      Metrics::Get().hist(hist).Observe(dur);
    }
    if ((m & kModeRing) != 0) {
      Tracer::Get().Record(EventId::kLockWait, Phase::kSpan, t0, dur, lock_id,
                           0);
    }
  }
  ~TimedLockGuard() { lock_.unlock(); }
  TimedLockGuard(const TimedLockGuard&) = delete;
  TimedLockGuard& operator=(const TimedLockGuard&) = delete;

 private:
  Lock& lock_;
};

}  // namespace sva::trace

#endif  // SVA_SRC_TRACE_TRACE_H_
