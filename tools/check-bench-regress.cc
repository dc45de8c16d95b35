// check-bench-regress: the one bench-invariant checker. Every invariant a
// benchmark report must keep lives in one table below, keyed by the
// report's "bench" field, and the same rows gate two kinds of input:
//
//   check-bench-regress bench/records   a directory of committed records
//                                       (bench/records/*.json): every bench
//                                       in the table needs exactly one
//                                       record, and every row must hold;
//   check-bench-regress report.json     one fresh report, as a bench's
//                                       --json flag writes it (the ctest
//                                       gates run --quick benches this way):
//                                       the rows of its bench must hold.
//
// A report must carry "bench" (a name in the table), "hw_cpus" (hardware
// threads on the host that wrote it) and at least one record. Some rows
// need a minimum of hardware threads to mean anything (a 1->4 worker
// speedup needs 4). A fresh report from a smaller host skips those rows
// with a SKIP line that names each one; a committed record from a smaller
// host fails them, because a record is evidence and must come from a host
// that can show it.
//
// Absolute performance is not gated (records may come from any host);
// ratios, scale floors and invariants are.
//
// Exit codes: 0 = every row holds, 1 = a row failed or a report is
// malformed, 77 = a fresh report held every row it could check but skipped
// one for want of hardware threads (ctest maps 77 to SKIP).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr int kExitSkip = 77;

struct Record {
  std::string metric;
  std::string mode;
  double value = 0;
  double cpus = 0;  // worker count axis, 0 when the record carries none
};

using Records = std::vector<Record>;

// What a row found: whether the invariant holds, and the measurement or
// the reason it does not.
struct Verdict {
  bool ok = true;
  std::string detail;
};

Verdict Holds() { return {}; }
Verdict Broken(std::string why) { return {false, std::move(why)}; }

// Every record of `metric` (and `mode`, if non-empty).
std::vector<const Record*> All(const Records& records,
                               const std::string& metric,
                               const std::string& mode = "") {
  std::vector<const Record*> out;
  for (const Record& r : records) {
    if (r.metric == metric && (mode.empty() || r.mode == mode)) {
      out.push_back(&r);
    }
  }
  return out;
}

const Record* Find(const Records& records, const std::string& metric,
                   const std::string& mode = "") {
  std::vector<const Record*> found = All(records, metric, mode);
  return found.empty() ? nullptr : found.front();
}

std::string Format(const char* format, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string Num(double v) { return Format("%.6g", v); }
std::string Ratio(double v) { return Format("%.3fx", v); }

// Every record of `metric` must exist and keep `ok(value)`.
template <typename Pred>
Verdict EveryRecord(const Records& records, const std::string& metric,
                    Pred ok, const std::string& bound) {
  std::vector<const Record*> found = All(records, metric);
  if (found.empty()) {
    return Broken("'" + metric + "' records missing");
  }
  for (const Record* r : found) {
    if (!ok(r->value)) {
      return Broken("'" + metric + "' " + Num(r->value) +
                    (r->mode.empty() ? "" : " (" + r->mode + ")") +
                    ", needs " + bound);
    }
  }
  return Holds();
}

// Each metric must have a record for each mode ("" = any mode), and with
// `positive` that record must be > 0.
Verdict Recorded(const Records& records,
                 const std::vector<std::string>& metrics,
                 const std::vector<std::string>& modes, bool positive) {
  for (const std::string& metric : metrics) {
    for (const std::string& mode : modes) {
      const Record* r = Find(records, metric, mode);
      if (r == nullptr || (positive && r->value <= 0)) {
        return Broken("'" + metric + "'" +
                      (mode.empty() ? "" : " for mode " + mode) +
                      (positive ? " missing or zero" : " missing"));
      }
    }
  }
  return Holds();
}

Verdict Present(const Records& records,
                const std::vector<std::string>& metrics,
                const std::vector<std::string>& modes = {""}) {
  return Recorded(records, metrics, modes, /*positive=*/false);
}

Verdict NonZero(const Records& records,
                const std::vector<std::string>& metrics,
                const std::vector<std::string>& modes = {""}) {
  return Recorded(records, metrics, modes, /*positive=*/true);
}

// `ratio` must reach `required`; `measured` names what it was taken from.
Verdict RatioAtLeast(double ratio, double required,
                     const std::string& measured) {
  return {ratio >= required, measured + ", " + Ratio(ratio) + ", needs >= " +
                                 Ratio(required)};
}

// The 1->`workers` worker throughput ratio of `metric` must reach
// `required`.
Verdict SpeedupFrom1(const Records& records, const std::string& metric,
                     double workers, double required) {
  double rate1 = 0;
  double rate_n = 0;
  for (const Record* r : All(records, metric)) {
    if (r->cpus == 1) {
      rate1 = r->value;
    } else if (r->cpus == workers) {
      rate_n = r->value;
    }
  }
  if (rate1 <= 0 || rate_n <= 0) {
    return Broken("'" + metric + "' lacks 1- and " + Num(workers) +
                  "-worker records");
  }
  return RatioAtLeast(rate_n / rate1, required,
                      Num(rate1) + " -> " + Num(rate_n) + "/s");
}

// Below this the timer's resolution dominates a latency, and a ratio of
// two such numbers means nothing.
constexpr double kMinCredibleLatencyUs = 0.05;

struct Invariant {
  const char* bench;  // the report's "bench" field
  const char* name;   // named in every FAIL and SKIP line
  // Hardware threads the host must have for the row to mean anything.
  int min_hw_cpus;
  Verdict (*check)(const Records&);
};

// The invariants, by bench. A bench absent here is not a known report.
const Invariant kInvariants[] = {
    // Table 7: the execution tier. The threaded tier must run the
    // safe-mode bytecode syscall workload at least 1.4x faster than the
    // tree-walker (a loose floor: a quiet host measures 4-7x).
    {"table7_syscall_latency", "threaded tier >= 1.4x the interpreter", 1,
     [](const Records& r) {
       const Record* interp = Find(r, "bytecode_syscall", "tier-interp");
       const Record* threaded = Find(r, "bytecode_syscall", "tier-threaded");
       if (interp == nullptr || threaded == nullptr) {
         return Broken("bytecode_syscall tier-interp/tier-threaded missing");
       }
       if (interp->value < kMinCredibleLatencyUs ||
           threaded->value < kMinCredibleLatencyUs) {
         return Broken("latencies " + Num(interp->value) + " / " +
                       Num(threaded->value) + " us are below the timer's "
                       "credible floor of " + Num(kMinCredibleLatencyUs) +
                       " us");
       }
       return RatioAtLeast(
           interp->value / threaded->value, 1.4,
           Num(interp->value) + " -> " + Num(threaded->value) + " us/call");
     }},

    // Net throughput: packet rates, and NAPI keeps rx interrupts per
    // packet under 1 in every mode.
    {"net_throughput", "udp packet rate recorded", 1,
     [](const Records& r) { return Present(r, {"udp packets/sec"}); }},
    {"net_throughput", "NAPI: rx irqs per packet < 1", 1,
     [](const Records& r) {
       return EveryRecord(r, "rx irqs per packet",
                          [](double v) { return v < 1.0; }, "< 1");
     }},

    // c10k: event-driven I/O at scale. Every mode held 10,000
    // connections; p99 stays under 10 s (queueing-dominated by design, the
    // bound only catches a wedged event loop, and needs the driver and
    // workers on separate threads); NAPI batching holds per frame.
    {"c10k", "concurrent connections >= 10,000", 1,
     [](const Records& r) {
       return EveryRecord(r, "concurrent connections",
                          [](double v) { return v >= 10000; }, ">= 10000");
     }},
    {"c10k", "latency p99 <= 10 s", 2,
     [](const Records& r) {
       return EveryRecord(r, "latency p99",
                          [](double v) { return v <= 10e6; },
                          "<= 1e+07 us");
     }},
    {"c10k", "NAPI: rx irqs per frame < 1", 1,
     [](const Records& r) {
       return EveryRecord(r, "rx irqs per frame",
                          [](double v) { return v < 1.0; }, "< 1");
     }},

    // Table 6: thttpd bandwidth in all four kernel modes. Large-file
    // serving is per-frame work: safe mode keeps >= 70% of native only
    // while registering, dropping and checking an skb stays constant-time.
    {"table6_thttpd_bandwidth", "311 B recorded in all four modes", 1,
     [](const Records& r) {
       return Present(r, {"311 B"},
                      {"Linux-native", "Linux-SVA-GCC", "Linux-SVA-LLVM",
                       "Linux-SVA-Safe"});
     }},
    {"table6_thttpd_bandwidth", "85 KB: Linux-SVA-Safe >= 0.70x native", 1,
     [](const Records& r) {
       const Record* native = Find(r, "85 KB", "Linux-native");
       const Record* safe = Find(r, "85 KB", "Linux-SVA-Safe");
       if (native == nullptr || safe == nullptr) {
         return Broken("'85 KB' missing for Linux-native or Linux-SVA-Safe");
       }
       return RatioAtLeast(safe->value / native->value, 0.70,
                           Num(safe->value) + " of " + Num(native->value) +
                               " KB/s native");
     }},

    // SMP scaling. The kernel phase still takes leaf locks on its write
    // paths (a loose 1.3x from 1 to 4 workers); the read-mostly phase
    // (stat/getpid/lseek) resolves fds and paths under epoch protection
    // with no shared lock, so falling under 2.5x means a reader path
    // regressed onto files_lock_ or vfs_lock_. In the private-objects
    // phase each worker takes only its own inode's and pipe's locks, so
    // two workers under 1.3x one means the file or pipe path regressed
    // onto a shared lock or a shared written line (the 2-worker ratio
    // still needs 4 hardware threads: on 2, host work shares the pair).
    {"smp_scaling", "kernel, read-mostly and private-objects phases recorded",
     1,
     [](const Records& r) {
       return NonZero(r, {"kernel syscalls/sec", "readmostly syscalls/sec",
                          "private syscalls/sec"});
     }},
    {"smp_scaling", "kernel phase 1->4 workers >= 1.3x", 4,
     [](const Records& r) {
       return SpeedupFrom1(r, "kernel syscalls/sec", 4, 1.3);
     }},
    {"smp_scaling", "read-mostly phase 1->4 workers >= 2.5x", 4,
     [](const Records& r) {
       return SpeedupFrom1(r, "readmostly syscalls/sec", 4, 2.5);
     }},
    {"smp_scaling", "private-objects phase 1->2 workers >= 1.3x", 4,
     [](const Records& r) {
       return SpeedupFrom1(r, "private syscalls/sec", 2, 1.3);
     }},

    // VM operations: COW fork beats the eager copy; fault and shootdown
    // latencies are recorded for every kind and invalidation mode.
    {"vm_ops", "COW fork beats the eager copy", 1,
     [](const Records& r) {
       const Record* cow = Find(r, "fork.latency", "cow");
       const Record* eager = Find(r, "fork.latency", "eager");
       if (cow == nullptr || eager == nullptr) {
         return Broken("fork.latency missing for cow or eager");
       }
       return Verdict{cow->value < eager->value,
                      "cow " + Num(cow->value) + " ns, eager " +
                          Num(eager->value) + " ns"};
     }},
    {"vm_ops", "fault latencies recorded", 1,
     [](const Records& r) {
       return NonZero(r, {"fault.demand_fill", "fault.tlb_hit",
                          "fault.cow_break_copy"});
     }},
    {"vm_ops", "shootdown latency recorded per mode", 1,
     [](const Records& r) {
       return NonZero(r, {"shootdown.latency"}, {"page", "asid"});
     }},

    // Trace overhead: disabled tracepoints cost <= 2% and profiling <= 5%
    // of the workload; the profiler records samples; metrics mode is
    // measured per workload and over the Table 7 mix.
    {"trace_overhead", "disabled tracepoints <= 2%", 1,
     [](const Records& r) {
       return EveryRecord(r, "estimated disabled overhead",
                          [](double v) { return v <= 2.0; }, "<= 2%");
     }},
    {"trace_overhead", "profiling hooks <= 5% in every mode", 1,
     [](const Records& r) {
       Verdict v = Present(r, {"estimated profiling overhead"},
                           {"tier-interp", "tier-threaded", "table7-mix"});
       if (!v.ok) {
         return v;
       }
       return EveryRecord(r, "estimated profiling overhead",
                          [](double x) { return x <= 5.0; }, "<= 5%");
     }},
    {"trace_overhead", "profiler recorded samples", 1,
     [](const Records& r) { return NonZero(r, {"prof samples"}); }},
    {"trace_overhead", "metrics overhead measured per workload", 1,
     [](const Records& r) {
       return Present(r, {"measured metrics overhead"},
                      {"getpid", "open+close", "pipe w+r", "table7-mix"});
     }},
};

bool KnownBench(const std::string& bench) {
  for (const Invariant& inv : kInvariants) {
    if (bench == inv.bench) {
      return true;
    }
  }
  return false;
}

struct Report {
  std::string bench;
  double hw_cpus = 0;
  Records records;
};

// Pulls the quoted string following `key` in [from, until), or "".
std::string FindString(const std::string& text, const std::string& key,
                       size_t from, size_t until) {
  size_t pos = text.find(key, from);
  if (pos == std::string::npos || pos >= until) {
    return "";
  }
  pos += key.size();
  size_t end = text.find('"', pos);
  return end == std::string::npos ? "" : text.substr(pos, end - pos);
}

// Loads a bench report; on failure returns false and sets `error`.
bool LoadReport(const std::string& path, Report* report, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read the file";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const size_t records_at = text.find("\"records\":");
  report->bench = FindString(text, "\"bench\": \"", 0, records_at);
  if (report->bench.empty()) {
    *error = "no \"bench\" field";
    return false;
  }
  if (!KnownBench(report->bench)) {
    *error = "unknown bench \"" + report->bench + "\"";
    return false;
  }
  const size_t hpos = text.find("\"hw_cpus\": ");
  if (hpos == std::string::npos || hpos > records_at) {
    *error = "no \"hw_cpus\" field";
    return false;
  }
  report->hw_cpus = std::strtod(text.c_str() + hpos + 11, nullptr);
  size_t pos = 0;
  while ((pos = text.find("{\"metric\": \"", pos)) != std::string::npos) {
    size_t line_end = text.find('\n', pos);
    if (line_end == std::string::npos) {
      line_end = text.size();
    }
    Record r;
    r.metric = FindString(text, "\"metric\": \"", pos, line_end);
    r.mode = FindString(text, "\"mode\": \"", pos, line_end);
    size_t vpos = text.find("\"value\": ", pos);
    if (r.metric.empty() || vpos == std::string::npos || vpos >= line_end) {
      *error = "malformed record";
      return false;
    }
    r.value = std::strtod(text.c_str() + vpos + 9, nullptr);
    size_t cpos = text.find("\"cpus\": ", pos);
    if (cpos != std::string::npos && cpos < line_end) {
      r.cpus = std::strtod(text.c_str() + cpos + 8, nullptr);
    }
    report->records.push_back(std::move(r));
    pos = line_end;
  }
  if (report->records.empty()) {
    *error = "no records";
    return false;
  }
  return true;
}

struct Tally {
  int failures = 0;
  int skips = 0;
};

void Fail(Tally* tally, const std::string& file, const std::string& why) {
  std::fprintf(stderr, "check-bench-regress: %s: FAIL %s\n", file.c_str(),
               why.c_str());
  ++tally->failures;
}

// Runs the rows of the report's bench. `fresh` selects what a host with too
// few hardware threads means: a skip for fresh output, a failure for a
// committed record.
void CheckReport(const std::string& file, const Report& report, bool fresh,
                 Tally* tally) {
  for (const Invariant& inv : kInvariants) {
    if (report.bench != inv.bench) {
      continue;
    }
    if (report.hw_cpus < inv.min_hw_cpus) {
      std::string why = std::string(inv.name) + ": host has " +
                        Num(report.hw_cpus) + " hardware thread(s), needs " +
                        std::to_string(inv.min_hw_cpus);
      if (fresh) {
        std::printf("check-bench-regress: %s: SKIP %s\n", file.c_str(),
                    why.c_str());
        ++tally->skips;
      } else {
        Fail(tally, file, why + "; re-record it on such a host");
      }
      continue;
    }
    Verdict v = inv.check(report.records);
    if (!v.ok) {
      Fail(tally, file, std::string(inv.name) + ": " + v.detail);
    } else {
      std::string detail = v.detail.empty() ? "" : " (" + v.detail + ")";
      std::printf("check-bench-regress: %s: ok %s%s\n", file.c_str(),
                  inv.name, detail.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: check-bench-regress <records directory | "
                 "report.json>\n");
    return 1;
  }
  namespace fs = std::filesystem;
  const fs::path input = argv[1];
  const bool fresh = !fs::is_directory(input);
  std::vector<fs::path> files;
  if (fresh) {
    files.push_back(input);
  } else {
    for (const fs::directory_entry& e : fs::directory_iterator(input)) {
      if (e.path().extension() == ".json") {
        files.push_back(e.path());
      }
    }
    std::sort(files.begin(), files.end());
  }

  Tally tally;
  std::set<std::string> seen;
  for (const fs::path& path : files) {
    Report report;
    std::string error;
    if (!LoadReport(path.string(), &report, &error)) {
      Fail(&tally, path.string(), error);
      continue;
    }
    if (!seen.insert(report.bench).second) {
      Fail(&tally, path.string(),
           "second record for bench \"" + report.bench + "\"");
      continue;
    }
    CheckReport(path.string(), report, fresh, &tally);
  }
  if (!fresh) {
    for (const Invariant& inv : kInvariants) {
      if (seen.insert(inv.bench).second) {
        Fail(&tally, input.string(),
             std::string("no record for bench \"") + inv.bench + "\"");
      }
    }
  }

  if (tally.failures != 0) {
    std::fprintf(stderr, "check-bench-regress: %d failure(s)\n",
                 tally.failures);
    return 1;
  }
  if (tally.skips != 0) {
    std::printf("check-bench-regress: %d invariant(s) skipped\n",
                tally.skips);
    return kExitSkip;
  }
  std::printf("check-bench-regress: every invariant holds\n");
  return 0;
}
