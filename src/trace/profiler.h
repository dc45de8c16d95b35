// Statistical sampling profiler, perf-style, layered on the PR-4 trace
// rings.
//
// Producers (the kernel syscall dispatcher, the SVA-OS trap handlers, both
// execution tiers) publish "what am I doing right now" into a per-CPU
// current-context slot: a small stack of {name id, pid, context kind, mode}
// entries plus a guest call stack of interned function-name ids. A sampler
// thread fires at a configurable rate (default 997 Hz — prime, so it does
// not beat against millisecond-periodic work), reads every configured CPU's
// slot through a seqlock, and records one kProfSample event per CPU into
// profiler-private per-CPU EventRings (same seqlock-slot discipline,
// flight-recorder overwrite, lost accounting as the Tracer rings).
//
// The slot is written only by the CPU that owns it and read only by the
// sampler. A seqlock (odd = mid-update) plus all-atomic fields make the
// race a counted misattribution — a torn read retries a few times, then
// counts the sample as unattributed — never UB. Producers never take a
// lock, never allocate, and never block: the push/pop fast path is a few
// relaxed stores behind a one-relaxed-load gate (prof_enabled()), so it is
// safe inside interrupt context and under any rank of kernel lock (see
// docs/CONCURRENCY.md).
//
// Name interning is the one place a producer may take a lock: the leaf
// name_lock_, held for a map lookup only, never while acquiring anything
// else. Callers intern once per call site (static/local caches) so the
// steady state never touches it.
#ifndef SVA_SRC_TRACE_PROFILER_H_
#define SVA_SRC_TRACE_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/smp/percpu.h"
#include "src/trace/trace.h"

namespace sva::trace {

// What a CPU was doing when the sample hit. Ordering is part of the wire
// format (kProfRead returns the raw value); append only.
enum class ProfContext : uint8_t {
  kUnknown = 0,
  kIdle = 1,
  kGuestThreaded = 2,  // Guest bytecode on the threaded-code tier.
  kGuestInterp = 3,    // Guest bytecode on the tree-walking interpreter.
  kKernelSyscall = 4,  // Inside HandleSyscall.
  kSvaOsOp = 5,        // SVA-OS dispatch / non-NIC interrupt.
  kNetIrq = 6,         // NIC rx interrupt / NAPI poll.
  kNumContexts,
};

const char* ProfContextName(ProfContext c);

// Interns `name` into the global profiler string table, returning a stable
// id. Id 0 is reserved ("unknown"). Takes the leaf name lock; cache the
// result at the call site.
uint32_t InternProfName(std::string_view name);
// The interned string for `id` ("unknown" for ids never handed out).
std::string ProfNameForId(uint32_t id);

namespace internal {
// Count of active profiling sessions; the producer-side gate.
inline std::atomic<uint32_t> g_prof_sessions{0};
}  // namespace internal

// The producer fast path when no profiler is running: one relaxed load.
inline bool prof_enabled() {
  return internal::g_prof_sessions.load(std::memory_order_relaxed) != 0;
}

// One decoded sample.
struct ProfSample {
  uint64_t ts_ns = 0;
  uint32_t stack_id = 0;  // Index into the interned-stack table.
  uint32_t pid = 0;
  uint8_t cpu = 0;
  ProfContext context = ProfContext::kUnknown;
  uint8_t mode = 0;  // KernelMode ordinal of the sampled task (0 = native).
  uint8_t depth = 0;  // Context-stack depth at sample time.
};

class Profiler {
 public:
  struct Options {
    unsigned hz = 997;       // Sampling rate; must be in [1, 100000].
    unsigned num_cpus = 1;   // CPUs [0, num_cpus) are sampled each tick.
    // When set, the sampler calls tick() each period instead of sampling
    // directly — the hook for routing through hw::TimerDevice so the
    // "timer interrupt drives the profiler" wiring is real. The callee is
    // expected to end up in SampleNow().
    std::function<void()> tick;
  };

  struct Stats {
    uint64_t samples = 0;        // Samples recorded (attributed or not).
    uint64_t lost = 0;           // Ring overwrites + store trims.
    uint64_t stacks_truncated = 0;  // Guest stacks deeper than the slot.
    uint64_t unattributed = 0;   // Seqlock never settled; context unknown.
  };

  static Profiler& Get();

  // Starts (or joins) the sampling session. Refcounted: the first Start
  // spawns the sampler thread with `opts`; later Starts just bump the
  // count (their options are ignored). Returns false if opts are invalid.
  bool Start(const Options& opts);
  // Drops one reference; the last Stop joins the sampler. Samples stay
  // readable/exportable after the session ends.
  void Stop();
  bool running() const {
    return internal::g_prof_sessions.load(std::memory_order_relaxed) != 0;
  }

  // --- Producer API (hot path, interrupt-safe) ---------------------------
  // Pushes/pops one context entry on the calling CPU's slot. name_id is an
  // InternProfName result; pid/mode describe the current task.
  void PushContext(ProfContext ctx, uint32_t name_id, uint32_t pid,
                   uint8_t mode);
  void PopContext();
  // Pushes/pops one guest frame (a function entry on either tier).
  void PushGuestFrame(uint32_t name_id, bool threaded, bool safe_mode);
  void PopGuestFrame();

  // --- Sampler ----------------------------------------------------------
  // Takes one sample of every configured CPU right now. Normally called by
  // the sampler thread (directly or via the timer-interrupt tick hook);
  // also callable from tests.
  void SampleNow();

  // --- Consumer API (control plane) -------------------------------------
  // Copies up to `max` samples starting at *cursor (an absolute sample
  // index; clamped forward if the store trimmed past it), advancing
  // *cursor. Returns the number appended.
  size_t ReadSamples(uint64_t* cursor, std::vector<ProfSample>* out,
                     size_t max);
  // The absolute index one past the newest stored sample — the cursor a
  // reader starts from to see only post-subscription samples.
  uint64_t EndCursor() const;

  Stats stats() const;
  // Cumulative sample count per context (index = ProfContext ordinal).
  std::vector<uint64_t> ContextCounts() const;

  // Collapsed-stack ("folded") text: one `frame;frame;... count` line per
  // distinct stack, flamegraph.pl / speedscope compatible. Built from the
  // cumulative per-stack counters, so it survives store trimming.
  std::string FoldedText() const;
  bool WriteFolded(const std::string& path) const;
  // The `;`-joined frame string for an interned stack id.
  std::string StackString(uint32_t stack_id) const;
  // The n highest-count stacks as {stack string, count}, descending.
  std::vector<std::pair<std::string, uint64_t>> TopStacks(size_t n) const;

  // Stops any session and clears samples, stacks, counters, and slots.
  // Control-plane only; requires producer quiescence (same rule as
  // Tracer::Enable).
  void ResetForTest();

 private:
  // The per-CPU current-context slot. Written by the owning CPU, read by
  // the sampler through the seq field.
  struct Slot {
    static constexpr unsigned kMaxContexts = 8;
    static constexpr unsigned kMaxGuestFrames = 32;
    std::atomic<uint32_t> seq{0};  // Odd while the owner is mid-update.
    std::atomic<uint32_t> depth{0};
    // name_id<<32 | (pid & 0xffff)<<16 | ctx<<8 | mode.
    std::atomic<uint64_t> ctx[kMaxContexts] = {};
    std::atomic<uint32_t> gdepth{0};
    // name_id<<2 | threaded<<1 | safe — the tier/mode ride with each frame
    // so popping back across a cross-tier call never leaves a stale flag.
    std::atomic<uint32_t> gframe[kMaxGuestFrames] = {};
    std::atomic<uint64_t> truncated{0};  // Pushes past kMaxGuestFrames.
  };

  Profiler() = default;

  void SamplerMain();
  void SampleCpu(unsigned cpu, uint64_t ts_ns);
  // Interns a frame vector into the stack table; returns its id.
  uint32_t InternStack(const std::vector<uint32_t>& frames);
  void DrainRingsLocked();

  smp::PerCpu<Slot> slots_;
  smp::PerCpu<EventRing> rings_;  // Transport: sampler -> drain, per CPU.

  // Control plane. control_lock_ orders Start/Stop; it is never taken on
  // the producer or sampler fast paths.
  std::mutex control_lock_;
  Options opts_;
  std::thread sampler_;
  std::atomic<bool> sampler_run_{false};
  std::atomic<bool> sampler_ticked_{false};  // Set after each sampler tick.

  // Sample store + stack table, under store_lock_ (leaf; the sampler takes
  // it briefly after recording, consumers take it to read).
  mutable smp::SpinLock store_lock_;
  static constexpr size_t kMaxStoredSamples = 1 << 20;
  std::deque<ProfSample> store_;
  uint64_t store_base_ = 0;  // Absolute index of store_.front().
  std::map<std::vector<uint32_t>, uint32_t> stack_ids_;
  std::vector<std::vector<uint32_t>> stacks_;       // id -> frames.
  std::vector<uint64_t> stack_counts_;              // id -> samples.
  uint64_t samples_ = 0;
  uint64_t lost_ = 0;
  uint64_t unattributed_ = 0;
  uint64_t context_counts_[static_cast<size_t>(ProfContext::kNumContexts)] =
      {};
};

// RAII producer helpers. Enter() is separated from the constructor so the
// prof_enabled() check stays a single inlined branch at the call site:
//
//   ProfContextScope prof;
//   if (trace::prof_enabled()) prof.Enter(ctx, name_id, pid, mode);
class ProfContextScope {
 public:
  ProfContextScope() = default;
  void Enter(ProfContext ctx, uint32_t name_id, uint32_t pid, uint8_t mode) {
    Profiler::Get().PushContext(ctx, name_id, pid, mode);
    entered_ = true;
  }
  ~ProfContextScope() {
    if (entered_) {
      Profiler::Get().PopContext();
    }
  }
  ProfContextScope(const ProfContextScope&) = delete;
  ProfContextScope& operator=(const ProfContextScope&) = delete;

 private:
  bool entered_ = false;
};

class ProfGuestFrameScope {
 public:
  ProfGuestFrameScope() = default;
  void Enter(uint32_t name_id, bool threaded, bool safe_mode) {
    Profiler::Get().PushGuestFrame(name_id, threaded, safe_mode);
    entered_ = true;
  }
  ~ProfGuestFrameScope() {
    if (entered_) {
      Profiler::Get().PopGuestFrame();
    }
  }
  ProfGuestFrameScope(const ProfGuestFrameScope&) = delete;
  ProfGuestFrameScope& operator=(const ProfGuestFrameScope&) = delete;

 private:
  bool entered_ = false;
};

}  // namespace sva::trace

#endif  // SVA_SRC_TRACE_PROFILER_H_
