#include "src/trace/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace sva::trace {

const char* HistName(HistId id) {
  switch (id) {
    case HistId::kSyscallNs: return "sva_syscall_ns";
    case HistId::kPipesWaitNs: return "sva_pipes_lock_wait_ns";
    case HistId::kVfsWaitNs: return "sva_vfs_lock_wait_ns";
    case HistId::kTasksWaitNs: return "sva_tasks_lock_wait_ns";
    case HistId::kSvaosDispatchNs: return "sva_svaos_dispatch_ns";
    case HistId::kIrqNs: return "sva_irq_ns";
    case HistId::kNicTxNs: return "sva_nic_tx_ns";
    case HistId::kNicRxIrqNs: return "sva_nic_rx_irq_ns";
    case HistId::kEvqWaitNs: return "sva_evq_wait_ns";
    case HistId::kPageFaultNs: return "sva_page_fault_ns";
    case HistId::kForkNs: return "sva_fork_ns";
    case HistId::kExecNs: return "sva_exec_ns";
    case HistId::kNumHists:
    case HistId::kNone: break;
  }
  return "sva_unknown_ns";
}

Metrics& Metrics::Get() {
  static Metrics metrics;
  return metrics;
}

TierCounters& TierCounters::Get() {
  static TierCounters counters;
  return counters;
}

std::vector<HistogramSnapshot> Metrics::Snapshot() const {
  std::vector<HistogramSnapshot> out;
  out.reserve(kNumHistograms);
  for (size_t i = 0; i < kNumHistograms; ++i) {
    HistogramSnapshot snap = hists_[i].Snapshot();
    snap.name = HistName(static_cast<HistId>(i));
    out.push_back(std::move(snap));
  }
  return out;
}

void Metrics::Reset() {
  for (Histogram& h : hists_) {
    h.Reset();
  }
}

std::string RenderPrometheus(const std::vector<CounterSample>& counters,
                             const std::vector<HistogramSnapshot>& hists) {
  std::string out;
  out.reserve(4096);
  char line[256];
  const char* last_name = "";
  for (const CounterSample& c : counters) {
    if (c.name != last_name) {
      std::snprintf(line, sizeof(line), "# TYPE %s counter\n",
                    c.name.c_str());
      out += line;
      last_name = c.name.c_str();
    }
    std::snprintf(line, sizeof(line), "%s%s %" PRIu64 "\n", c.name.c_str(),
                  c.label.c_str(), c.value);
    out += line;
  }
  for (const HistogramSnapshot& h : hists) {
    std::snprintf(line, sizeof(line), "# TYPE %s histogram\n",
                  h.name.c_str());
    out += line;
    // Cumulative buckets, non-empty ones only (plus the mandatory +Inf).
    // Bucket b holds values of bit_width b, so its upper edge is 2^b - 1.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) {
        continue;
      }
      cumulative += h.buckets[b];
      if (b >= 64) {
        continue;  // Top bucket's edge is only representable as +Inf.
      }
      uint64_t le = (b == 0) ? 0 : ((1ull << b) - 1);
      std::snprintf(line, sizeof(line),
                    "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                    h.name.c_str(), le, cumulative);
      out += line;
    }
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                  h.name.c_str(), h.count);
    out += line;
    std::snprintf(line, sizeof(line), "%s_sum %" PRIu64 "\n", h.name.c_str(),
                  h.sum);
    out += line;
    std::snprintf(line, sizeof(line), "%s_count %" PRIu64 "\n",
                  h.name.c_str(), h.count);
    out += line;
  }
  return out;
}

}  // namespace sva::trace
