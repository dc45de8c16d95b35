#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include <sys/resource.h>

namespace perfbench {

double RefMs() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
      k.push_back("key/" + std::to_string(rng.Below(1000000)) + "/x");
    }
    return k;
  }();
  const uint64_t t0 = NowNs();
  uint64_t acc = 0;
  std::map<std::string, uint64_t> ordered;
  std::unordered_map<uint64_t, std::string> hashed;
  for (size_t i = 0; i < keys.size(); ++i) {
    ordered[keys[i]] += i;
    hashed[i * 2654435761u] = keys[i];
  }
  for (size_t i = 0; i < keys.size(); i += 2) {
    acc += ordered.count(keys[(i * 7) % keys.size()]);
    ordered.erase(keys[i]);
  }
  std::vector<std::string> sorted(keys.begin(), keys.begin() + 1500);
  std::sort(sorted.begin(), sorted.end());
  char buf[64];
  for (int i = 0; i < 500; ++i) {
    std::snprintf(buf, sizeof(buf), "%d %.3f", i, i * 0.37);
    acc += static_cast<uint64_t>(std::strtod(buf + 2, nullptr));
  }
  acc += sorted[10].size() + hashed.size();
  asm volatile("" : : "r"(acc) : "memory");
  return static_cast<double>(NowNs() - t0) / 1e6;
}

double HostScaled(double t) {
  return t * kRefNominalMs / Median({RefMs(), RefMs(), RefMs()});
}

std::vector<double> PhaseLog::Factors() const {
  std::vector<double> out;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    std::vector<double> near;
    for (size_t k = b < 2 ? 0 : b - 2; k <= b + 2 && k < blocks_.size(); ++k) {
      near.push_back(blocks_[k].ref_ms);
    }
    out.push_back(kRefNominalMs / Median(near));
  }
  return out;
}

double PhaseLog::MedianRate(bool bytes) const {
  const std::vector<double> f = Factors();
  std::vector<double> rates;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const double s = static_cast<double>(blocks_[b].ns) * f[b] / 1e9;
    rates.push_back(bytes ? static_cast<double>(blocks_[b].bytes) / 1e6 / s
                          : static_cast<double>(blocks_[b].ops) / s);
  }
  return Median(rates);
}

double PhaseLog::OpsPerS() const { return MedianRate(false); }
double PhaseLog::MbPerS() const { return MedianRate(true); }

double PhaseLog::PercentileUs(const std::vector<const PhaseLog*>& logs,
                              double q, int cls) {
  std::vector<double> v;
  for (const PhaseLog* log : logs) {
    const std::vector<double> f = log->Factors();
    size_t i = 0;
    for (size_t b = 0; b < log->blocks_.size(); ++b) {
      for (; i < log->blocks_[b].end; ++i) {
        if (cls >= 0 && log->cls_[i] != cls) continue;
        v.push_back(log->ns_[i] == kFailedNs
                        ? HUGE_VAL
                        : static_cast<double>(log->ns_[i]) * f[b]);
      }
    }
  }
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  // A failed op sits above every successful one; report it as a latency
  // no limit admits.
  if (v[rank] == HUGE_VAL) return 1e12;
  return v[rank] / 1000.0;
}

size_t PhaseLog::Count(int cls) const {
  return static_cast<size_t>(std::count(
      cls_.begin(), cls_.begin() + static_cast<long>(size_), cls));
}

double SpanNsPerTick() {
  static const double ns_per_tick = [] {
    const uint64_t t0 = NowNs();
    const uint64_t c0 = SpanTicks();
    while (NowNs() - t0 < 20'000'000) {
    }
    const uint64_t t1 = NowNs();
    const uint64_t c1 = SpanTicks();
    return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return ns_per_tick;
}

uint32_t SpanNames::Intern(const std::string& name) {
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names.size());
  names.push_back(name);
  ids.emplace(name, id);
  return id;
}

double TraceSummary::MeanUs(const std::string& name) const {
  auto it = by_name.find(name);
  if (it == by_name.end() || it->second.calls == 0) return 0;
  return it->second.total_us / static_cast<double>(it->second.calls);
}

double TraceSummary::ResidualShare(int cls) const {
  return class_total_us[cls] > 0 ? class_residual_us[cls] / class_total_us[cls]
                                 : 0;
}

double TraceSummary::LayerSelfShare(const std::string& layer) const {
  double total = 0;
  for (double t : class_total_us) total += t;
  double self = 0;
  const std::string prefix = layer + ".";
  for (const auto& [name, e] : by_name) {
    if (name == layer || name.compare(0, prefix.size(), prefix) == 0) {
      self += e.self_us;
    }
  }
  return total > 0 ? self / total : 0;
}

TraceSummary Summarize(const std::vector<const SpanRecorder*>& recorders,
                       const SpanNames& names) {
  TraceSummary out;
  const double us_per_tick = SpanNsPerTick() / 1000.0;
  for (const SpanRecorder* rec : recorders) {
    std::vector<uint64_t> child_ticks(rec->size(), 0);
    for (size_t i = 0; i < rec->size(); ++i) {
      const Span& s = rec->span(i);
      if (s.parent >= 0) {
        child_ticks[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (size_t i = 0; i < rec->size(); ++i) {
      const Span& s = rec->span(i);
      const std::string& name = names.names[s.name];
      double dur_us = static_cast<double>(s.end - s.start) * us_per_tick;
      double self_us =
          dur_us - static_cast<double>(child_ticks[i]) * us_per_tick;
      TraceSummary::Entry& e = out.by_name[name];
      ++e.calls;
      e.total_us += dur_us;
      e.self_us += self_us;
      if (s.parent < 0) {
        for (int c = 0; c < kNumClasses; ++c) {
          if (name == std::string("op.") + kClassNames[c]) {
            out.class_total_us[c] += dur_us;
            out.class_residual_us[c] += self_us;
          }
        }
      }
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders,
                const SpanNames& names, const TraceSummary& summary) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# ns_per_tick\t" << SpanNsPerTick() << '\n';
  out << "# span\tname\top\tparent\tstart_tick\tend_tick\n";
  for (size_t r = 0; r < recorders.size(); ++r) {
    for (size_t i = 0; i < recorders[r]->size(); ++i) {
      const Span& s = recorders[r]->span(i);
      out << r << ':' << i << '\t' << names.names[s.name] << '\t' << s.op
          << '\t' << s.parent << '\t' << s.start << '\t' << s.end
          << '\n';
    }
  }
  out << "# summary\tname\tcalls\ttotal_us\tself_us\n";
  for (const auto& [name, e] : summary.by_name) {
    out << "#\t" << name << '\t' << e.calls << '\t' << e.total_us << '\t'
        << e.self_us << '\n';
  }
  return static_cast<bool>(out);
}

void PrintSummary(const TraceSummary& summary) {
  std::printf("%-34s %10s %12s %12s %10s\n", "span", "calls", "total_ms",
              "self_ms", "mean_us");
  for (const auto& [name, e] : summary.by_name) {
    std::printf("%-34s %10" PRIu64 " %12.3f %12.3f %10.3f\n", name.c_str(),
                e.calls, e.total_us / 1000.0, e.self_us / 1000.0,
                e.calls ? e.total_us / static_cast<double>(e.calls) : 0.0);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    std::printf("residual %-6s %8.3f%% of %.3f ms op time\n", kClassNames[c],
                100.0 * summary.ResidualShare(c),
                summary.class_total_us[c] / 1000.0);
  }
}

void ReportTraceSummary(const TraceSummary& sum,
                        const std::vector<double>& plain_s,
                        const std::vector<double>& traced_s,
                        uint64_t traced_ops, const Options& opt,
                        const SpanNames& names,
                        const std::vector<const SpanRecorder*>& recorders,
                        Report& report) {
  PrintSummary(sum);
  for (const char* layer : {"vir", "safety", "verifier", "svm", "kernel",
                            "net", "trace", "bench", "op"}) {
    std::printf("self share %-8s %8.3f%%\n",
                std::string(layer) == "op" ? "residual" : layer,
                100.0 * sum.LayerSelfShare(layer));
  }
  for (int c = 0; c < kNumClasses; ++c) {
    report.Set(std::string("bench.residual_") + kClassNames[c],
               sum.ResidualShare(c));
  }
  double traced_s_total = 0;
  for (double t : traced_s) traced_s_total += t;
  const double traced_rate = static_cast<double>(traced_ops) / traced_s_total;
  // Same ops on both sides: traced/untraced rate = untraced/traced time.
  const double overhead = 1.0 - MedianRatio(plain_s, traced_s);
  report.Set("bench.traced_ops_per_s", traced_rate);
  report.Set("bench.tracing_overhead", overhead);
  std::printf("tracing overhead: %.2f%% (median over %zu block pairs), "
              "traced %.0f ops/s\n",
              100.0 * overhead, traced_s.size(), traced_rate);
  std::error_code ec;
  std::filesystem::create_directories(opt.span_dir, ec);
  const std::string path = opt.span_dir + "/" + opt.workload + ".tsv";
  if (!WriteSpans(path, recorders, names, sum)) {
    report.Fail("cannot write spans to " + path);
  }
}

std::vector<std::vector<double>> Interleave(
    int sides, size_t blocks, const std::function<double(int, size_t)>& run) {
  std::vector<std::vector<double>> times(static_cast<size_t>(sides),
                                         std::vector<double>(blocks));
  for (size_t b = 0; b < blocks; ++b) {
    for (int i = 0; i < sides; ++i) {
      const int side = static_cast<int>((b + static_cast<size_t>(i)) %
                                        static_cast<size_t>(sides));
      times[static_cast<size_t>(side)][b] = run(side, b);
    }
  }
  return times;
}

double MedianRatio(const std::vector<double>& num,
                   const std::vector<double>& den) {
  std::vector<double> ratios;
  for (size_t b = 0; b < num.size() && b < den.size(); ++b) {
    if (den[b] > 0) ratios.push_back(num[b] / den[b]);
  }
  return Median(ratios);
}

void ReportCheckStats(const sva::runtime::CheckStats& b,
                      const sva::runtime::CheckStats& a, double ops,
                      Report& report) {
  auto per = [ops](uint64_t after, uint64_t before) {
    return ops > 0 ? static_cast<double>(after - before) / ops : 0.0;
  };
  report.Set("runtime.bounds_per_op",
             per(a.bounds_performed, b.bounds_performed));
  report.Set("runtime.loadstore_per_op",
             per(a.loadstore_performed, b.loadstore_performed));
  report.Set("runtime.indirect_per_op",
             per(a.indirect_performed, b.indirect_performed));
  report.Set("runtime.reg_per_op", per(a.registrations, b.registrations));
  report.Set("runtime.drop_per_op", per(a.drops, b.drops));
  const uint64_t hits = a.cache_hits - b.cache_hits;
  const uint64_t lookups = hits + a.cache_misses - b.cache_misses;
  report.Set("runtime.cache_hit_rate",
             lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0);
  report.Set("runtime.splay_cmp_per_op",
             per(a.splay_comparisons, b.splay_comparisons));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},         {"rss_mb", "MB"},
      {"ops_per_s", "1/s"},     {"p50_us", "us"},
      {"light_p50_us", "us"},   {"heavy_p50_us", "us"},
      {"cgi_p50_us", "us"},     {"mb_per_s", "MB/s"},
      {"load_ms", "ms"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"vir.parse_ms", "ms"},
        {"vir.serialize_ms", "ms"},
        {"safety.compile_ms", "ms"},
        {"safety.checks_inserted", "count"},
        {"verifier.check_ms", "ms"},
        {"svm.load_ms", "ms"},
    };
    for (const char* e : {"net_validate", "file_dispatch", "drv_ioctl",
                          "task_tick", "file_read", "net_rx",
                          "task_cycle"}) {
      l.push_back({std::string("svm.call_us.") + e, "us"});
    }
    MetricList rest = {
        {"svm.ops_per_call", "count"},
        {"svm.fallback_fns", "count"},
        {"runtime.bounds_per_op", "count"},
        {"runtime.loadstore_per_op", "count"},
        {"runtime.indirect_per_op", "count"},
        {"runtime.reg_per_op", "count"},
        {"runtime.drop_per_op", "count"},
        {"runtime.cache_hit_rate", "ratio"},
        {"runtime.splay_cmp_per_op", "count"},
        {"runtime.check_share", "ratio"},
        {"svaos.dispatch_per_op", "count"},
        {"svaos.state_ops_per_op", "count"},
        {"svaos.io_ops_per_req", "count"},
    };
    l.insert(l.end(), rest.begin(), rest.end());
    for (const char* s :
         {"getpid", "stat", "lseek", "read", "gettimeofday", "open", "close",
          "write", "sigaction", "fork", "execve", "exit", "waitpid",
          "yield", "recv", "send", "evq_wait"}) {
      l.push_back({std::string("kernel.syscall_us.") + s, "us"});
    }
    MetricList tail = {
        {"kernel.bytes_copied_per_op", "B"},
        {"mm.tlb_hit_rate", "ratio"},
        {"mm.page_faults_per_cgi", "count"},
        {"mm.cow_faults_per_cgi", "count"},
        {"mm.demand_fills_per_cgi", "count"},
        {"mm.shootdown_ipis_per_cgi", "count"},
        {"smp.scaling_2v1", "ratio"},
        {"smp.epoch_advances_per_op", "count"},
        {"smp.epoch_pending", "count"},
        {"net.wire_send_us", "us"},
        {"net.wire_take_us", "us"},
        {"net.tx_frames_per_req", "count"},
        {"net.rx_irqs_per_frame", "count"},
        {"net.frames_per_poll", "count"},
        {"trace.scrape_ms", "ms"},
        {"trace.metrics_share", "ratio"},
        {"bench.residual_light", "ratio"},
        {"bench.residual_heavy", "ratio"},
        {"bench.residual_cgi", "ratio"},
        {"bench.tracing_overhead", "ratio"},
        {"bench.traced_ops_per_s", "1/s"},
    };
    l.insert(l.end(), tail.begin(), tail.end());
    return l;
  }();
  return list;
}

void ReportLatency(const std::vector<const PhaseLog*>& logs, Report& report) {
  report.Set("p50_us", PhaseLog::PercentileUs(logs, 0.50, -1));
  for (int c = 0; c < kNumClasses; ++c) {
    report.Set(std::string(kClassNames[c]) + "_p50_us",
               PhaseLog::PercentileUs(logs, 0.50, c));
  }
}

void Report::Fail(const std::string& what) {
  if (correct_) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  correct_ = false;
}

void Report::Print(const MetricList& list) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : list) {
    auto it = values_.find(name);
    double v = it == values_.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
