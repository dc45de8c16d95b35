// The metrics registry: fixed-slot log2-bucket latency histograms, sharded
// per CPU so hot-path observations are relaxed increments on the caller's
// own cache lines: two per observation (bucket and sum; the count is the
// bucket total). Snapshots fold the shards, the same read-side pattern as
// MetaPoolRuntime::stats().
//
// Bucketing: an observation v lands in bucket bit_width(v), so bucket 0 is
// exactly v == 0 and bucket b (b >= 1) covers [2^(b-1), 2^b - 1]. 65 buckets
// cover the full uint64 range with no overflow bucket needed.
#ifndef SVA_SRC_TRACE_METRICS_H_
#define SVA_SRC_TRACE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/smp/percpu.h"

namespace sva::trace {

// Latency histograms with fixed registry slots. kNone is the "no histogram"
// sentinel for span tracepoints that only feed the ring.
enum class HistId : uint8_t {
  kSyscallNs = 0,     // Minikernel syscall, entry to exit.
  kPipesWaitNs,       // pipes_lock_ acquisition wait (the leaf-lock axis).
  kVfsWaitNs,         // vfs_lock_ acquisition wait.
  kTasksWaitNs,       // tasks_lock_ acquisition wait.
  kSvaosDispatchNs,   // SVA-OS trap dispatch.
  kIrqNs,             // Interrupt delivery, entry to iret.
  kNicTxNs,           // TransmitFrame (frame + DMA kick).
  kNicRxIrqNs,        // Rx interrupt handler (harvest + deliver).
  kEvqWaitNs,         // evq_wait, entry to return (block time included).
  kPageFaultNs,       // Demand-paging fault, TLB miss to mapped + filled.
  kForkNs,            // SysFork, entry to child ready.
  kExecNs,            // SysExecve, entry to reset image.
  kNumHists,
  kNone = 255,
};

inline constexpr size_t kNumHistograms =
    static_cast<size_t>(HistId::kNumHists);

// Prometheus-safe metric name for a histogram slot (e.g. "sva_syscall_ns").
const char* HistName(HistId id);

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, 65> buckets{};  // Indexed by bit_width.
};

class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Observe(uint64_t value) {
    Shard& shard = shards_.Current();
    shard.buckets[std::bit_width(value)].fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    shards_.ForEach([&snap](const Shard& shard) {
      snap.sum += shard.sum.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kBuckets; ++b) {
        snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      }
    });
    for (uint64_t n : snap.buckets) {
      snap.count += n;
    }
    return snap;
  }

  void Reset() {
    shards_.ForEachMutable([](Shard& shard) {
      shard.sum.store(0, std::memory_order_relaxed);
      for (auto& bucket : shard.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    });
  }

 private:
  struct Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  smp::PerCpu<Shard> shards_;
};

class Metrics {
 public:
  static Metrics& Get();

  Histogram& hist(HistId id) {
    return hists_[static_cast<size_t>(id)];
  }
  const Histogram& hist(HistId id) const {
    return hists_[static_cast<size_t>(id)];
  }

  std::vector<HistogramSnapshot> Snapshot() const;
  void Reset();

 private:
  Metrics() = default;
  std::array<Histogram, kNumHistograms> hists_;
};

// Per-tier SVM dispatch accounting: how many function activations and how
// many executed operations each execution tier handled, plus how many
// functions the threaded decoder refused (per-function interpreter
// fallback). The Interpreter accumulates these in plain members on the hot
// path and flushes them here once per Run(); /metrics renders them as
// sva_exec_tier_* counters.
struct TierCounters {
  std::atomic<uint64_t> interp_fns{0};
  std::atomic<uint64_t> interp_ops{0};
  std::atomic<uint64_t> threaded_fns{0};
  std::atomic<uint64_t> threaded_ops{0};
  std::atomic<uint64_t> fallback_fns{0};

  static TierCounters& Get();
};

// One named monotonic counter for the Prometheus rendering below.
struct CounterSample {
  std::string name;   // Prometheus metric name (…_total).
  std::string label;  // Optional label rendering, e.g. {pool="MPk"}.
  uint64_t value = 0;
};

// Renders counters + histograms in the Prometheus text exposition format
// (only non-empty buckets, cumulative, with a closing +Inf).
std::string RenderPrometheus(const std::vector<CounterSample>& counters,
                             const std::vector<HistogramSnapshot>& hists);

}  // namespace sva::trace

#endif  // SVA_SRC_TRACE_METRICS_H_
