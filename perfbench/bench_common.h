// Shared plumbing for the perfbench workloads: the seeded generator,
// per-op latency logs allocated before timing starts, the benchmark's own
// span recorder for traced runs, and the one-line JSON result.
#ifndef SVA_PERFBENCH_BENCH_COMMON_H_
#define SVA_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/checks.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

// Op classes every workload defines (see README.md for what each holds).
// kScrape marks http's /metrics scrapes: ops of their own, counted in the
// overall percentiles but in no class.
enum OpClass : uint8_t {
  kLight = 0,
  kHeavy = 1,
  kCgi = 2,
  kNumClasses = 3,
  kScrape = 3,
};
inline constexpr const char* kClassNames[kNumClasses] = {"light", "heavy",
                                                         "cgi"};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The span clock: the time-stamp counter where there is one (a few ns per
// read, against tens for steady_clock), so spans around sub-microsecond
// calls leave little unattributed time. SpanNsPerTick() converts.
inline uint64_t SpanTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return NowNs();
#endif
}
// Nanoseconds per SpanTicks() tick, calibrated once against steady_clock.
double SpanNsPerTick();

// splitmix64: the same seed gives the same op sequence on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

double Median(std::vector<double> values);

// Host-speed scaling. The shared host this benchmark runs on has slow
// states, lasting from seconds to minutes, in which the program runs
// 1.3-1.9x slower in user time; a run inside one moves every sample of it
// (see README.md). Every timing is therefore scaled to a nominal host
// speed: a fixed reference workload (RefMs: std::map,
// std::unordered_map, string sorting and number formatting, code the
// program does not contain) is timed next to each sample, and the
// sample's time is multiplied by kRefNominalMs / the reference's time
// then. The reference follows the host's state but not the program, so a
// change to the program still moves every scaled sample.
inline constexpr double kRefNominalMs = 2.2;
// Runs the reference once; returns its wall milliseconds.
double RefMs();
// `t` scaled to the nominal host speed by three reference runs made now.
double HostScaled(double t);

// Set-ups and loads are timed this many times per run each. Untraced
// runs time the first set-up at the start and spread the rest, and every
// load, between the blocks of the timed phase (see Spread), so they sample
// the host across the whole run rather than in one burst of a second.
inline constexpr size_t kSetups = 15;
inline constexpr size_t kLoads = 15;

// The set-up and load samples of one run, each host-scaled. After(b) runs
// those due once block b of `blocks` has run: evenly spread, all kSetups
// and kLoads of them by the last block. Each function returns one sample.
struct Spread {
  size_t blocks = 1;
  std::function<double()> setup_s;
  std::function<double()> load_ms;
  std::vector<double> setups;
  std::vector<double> loads;
  void After(size_t b) {
    while (setups.size() < (b + 1) * kSetups / blocks) {
      setups.push_back(HostScaled(setup_s()));
    }
    while (loads.size() < (b + 1) * kLoads / blocks) {
      loads.push_back(HostScaled(load_ms()));
    }
  }
};

// Value recorded for an op that failed: it misses every latency limit.
inline constexpr uint64_t kFailedNs = UINT64_MAX;

// One thread's timed phase, run in blocks: per-op latencies and classes,
// and per block its op and byte counts, its wall time, and the reference
// time measured right after it on the same thread. A block's host factor
// is kRefNominalMs over the median reference time of it and its two
// neighbours on each side. Latency storage is sized and written at
// set-up, so recording neither allocates nor faults in a page, and memory
// does not grow with the number of ops already run. Aligned to a cache
// line, so the logs of two workers side by side share none.
class alignas(64) PhaseLog {
 public:
  PhaseLog(size_t capacity, size_t blocks) : ns_(capacity), cls_(capacity) {
    blocks_.reserve(blocks);
  }
  void Add(OpClass c, uint64_t ns) {
    if (size_ == ns_.size()) {
      ns_.push_back(ns);
      cls_.push_back(c);
    } else {
      ns_[size_] = ns;
      cls_[size_] = c;
    }
    ++size_;
  }
  // Brackets one block of ops; EndBlock takes the block's op and byte
  // counts and runs the reference.
  void BeginBlock() { block_start_ns_ = NowNs(); }
  void EndBlock(uint64_t ops, uint64_t bytes) {
    const uint64_t ns = NowNs() - block_start_ns_;
    blocks_.push_back({ops, bytes, ns, size_, RefMs()});
  }
  // The median over blocks of the block's ops (or MB) per host-scaled
  // second.
  double OpsPerS() const;
  double MbPerS() const;
  size_t Count(int cls) const;

  // The nearest-rank percentile, in microseconds, over the ops of `logs`
  // (all ops for cls < 0, or one class), each op's time scaled by its
  // block's host factor. A failed op counts as slower than every
  // successful one.
  static double PercentileUs(const std::vector<const PhaseLog*>& logs,
                             double q, int cls);

 private:
  struct Block {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    uint64_t ns = 0;
    size_t end = 0;  // size_ when the block ended.
    double ref_ms = 0;
  };
  std::vector<double> Factors() const;
  double MedianRate(bool bytes) const;

  std::vector<uint64_t> ns_;
  std::vector<uint8_t> cls_;
  size_t size_ = 0;
  std::vector<Block> blocks_;
  uint64_t block_start_ns_ = 0;
};

// Compares `sides` variants of the same work (checks on and off, traced and
// untraced, ...) block by block: run(side, block) runs one block of ops on
// one side and returns its wall seconds. The sides take turns going first,
// so a slow spell or drift of the host lands on every side alike instead of
// on whichever phase ran later. Returns times[side][block].
std::vector<std::vector<double>> Interleave(
    int sides, size_t blocks, const std::function<double(int, size_t)>& run);
// Median over blocks of num[b] / den[b]: for the same ops on two sides,
// the ratio of their times, robust to a few disturbed blocks.
double MedianRatio(const std::vector<double>& num,
                   const std::vector<double>& den);

// One closed span recorded by the benchmark around a call into a layer.
struct Span {
  uint32_t name = 0;    // Index into SpanNames::names.
  int32_t parent = -1;  // Index of the enclosing span, -1 for an op root.
  uint64_t op = 0;      // Op id shared by every span of one op.
  uint64_t start = 0;   // SpanTicks() at entry and exit.
  uint64_t end = 0;
};

// Span names of one traced phase. Interned during set-up, before any
// worker thread starts, and read-only while spans are recorded.
struct SpanNames {
  uint32_t Intern(const std::string& name);
  std::map<std::string, uint32_t> ids;
  std::vector<std::string> names;
};

// In-memory span store for a traced phase: one per thread, sized at
// set-up, written out when the run ends. Spans nest through an explicit
// open stack; each op opens one root span named "op.<class>". Aligned to a
// cache line, like PhaseLog.
class alignas(64) SpanRecorder {
 public:
  // Storage is written once here, so recording faults in no pages.
  explicit SpanRecorder(size_t capacity) : spans_(capacity) {}
  // Opens a span and returns its index.
  int32_t Begin(uint32_t name, uint64_t op) {
    if (size_ == spans_.size()) spans_.emplace_back();
    Span& s = spans_[size_];
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    open_.push_back(static_cast<int32_t>(size_++));
    s.start = SpanTicks();
    return open_.back();
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end = SpanTicks();
    open_.pop_back();
  }
  size_t size() const { return size_; }
  const Span& span(size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  size_t size_ = 0;
  std::vector<int32_t> open_;
};

// RAII span; a null recorder makes it a no-op, so traced and untraced
// phases run the same code apart from the recording itself.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, uint32_t name, uint64_t op)
      : rec_(rec), index_(rec ? rec->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

// Self-time summary of a traced phase: per span name, the call count,
// total and self time; per op class, the op-root time and the part of it
// no child span covers (the residual).
struct TraceSummary {
  struct Entry {
    uint64_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Entry> by_name;
  double class_total_us[kNumClasses] = {0, 0, 0};
  double class_residual_us[kNumClasses] = {0, 0, 0};
  double MeanUs(const std::string& name) const;
  double ResidualShare(int cls) const;
  // Self time of every span whose name starts with "<layer>." or equals
  // "<layer>", as a share of all op-root time.
  double LayerSelfShare(const std::string& layer) const;
};

TraceSummary Summarize(const std::vector<const SpanRecorder*>& recorders,
                       const SpanNames& names);
// Writes every span as one TSV line (name, op, parent, start and end in
// span-clock ticks) and the summary as a table; returns false if the file
// cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders,
                const SpanNames& names, const TraceSummary& summary);
void PrintSummary(const TraceSummary& summary);

class Report;
struct Options;
// The traced run's closing step, shared by every workload: prints the
// self-time table, writes the spans to <span_dir>/<workload>.tsv, and sets
// the bench.* metrics: the per-class residual, and the tracing overhead
// from the interleaved untraced and traced block times of the same ops
// (`traced_ops` ops in all on the traced side).
void ReportTraceSummary(const TraceSummary& sum,
                        const std::vector<double>& plain_s,
                        const std::vector<double>& traced_s,
                        uint64_t traced_ops, const Options& opt,
                        const SpanNames& names,
                        const std::vector<const SpanRecorder*>& recorders,
                        Report& report);

// Sets runtime.{bounds,loadstore,indirect,reg,drop}_per_op,
// runtime.cache_hit_rate and runtime.splay_cmp_per_op from two snapshots
// of a runtime's CheckStats taken `ops` ops apart.
void ReportCheckStats(const sva::runtime::CheckStats& before,
                      const sva::runtime::CheckStats& after, double ops,
                      Report& report);

// Peak resident set (VmHWM, as getrusage reports it) in MB.
double PeakRssMb();

using MetricList = std::vector<std::pair<std::string, std::string>>;

// The end-to-end metrics (name, unit) every untraced run prints.
const MetricList& EndToEndMetrics();
// The per-layer metrics every traced run prints. The list is shared by all
// workloads; a workload that never enters a layer reports 0 for it.
const MetricList& PerLayerMetrics();

// The run's result.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  // Records a failed correctness check with its reason on stderr.
  void Fail(const std::string& what);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Prints the result as one JSON line, the last line of standard output:
  // exactly the metrics of `list`, in its order, with their units.
  void Print(const MetricList& list) const;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string span_dir = ".bench_build/spans";
};

// Scales a workload's per-second op budget by --seconds. Op counts depend
// only on the arguments, never on the host, so the same seed repeats the
// same ops and checks exactly.
inline uint64_t OpsFor(const Options& opt, uint64_t per_second) {
  return per_second * static_cast<uint64_t>(opt.seconds);
}

// Sets p50_us and the per-class <class>_p50_us over the ops of `logs`
// (PhaseLog::PercentileUs).
void ReportLatency(const std::vector<const PhaseLog*>& logs, Report& report);

void RunHttp(const Options& opt, Report& report);
void RunSyscall(const Options& opt, Report& report);
void RunBytecode(const Options& opt, Report& report);

}  // namespace perfbench

#endif  // SVA_PERFBENCH_BENCH_COMMON_H_
