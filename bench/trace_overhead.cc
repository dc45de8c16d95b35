// Tracing-overhead bench: what does the observability layer cost?
//
// The design target (ftrace/LTTng style) is that a *disabled* tracepoint is
// one predictable branch on a relaxed atomic load — cheap enough to leave
// compiled into every hot path. This bench provides the evidence, two ways:
//
//   1. Site-level: a tight loop over a span tracepoint with a histogram
//      (the syscall/dispatch/irq shape), against an empty loop, giving ns
//      per site disabled, with metrics on, and with full ring recording.
//   2. End-to-end: the Table 7 syscall workload (getpid / open+close /
//      pipe write+read on the SVA-Safe kernel) timed with tracing off,
//      metrics-only, and full in interleaved blocks, reported as medians
//      of per-block ratios; plus the measured tracepoint density (events
//      per syscall), which turns the site-level number into an estimated
//      whole-workload disabled overhead.
//   3. Profiling: the same treatment for the sampling profiler's context
//      hooks — ns per push/pop pair with a session live, hook density per
//      workload, and the resulting estimated overhead for the kernel
//      workload and both guest execution tiers (target: <= 5% with
//      profiling on; the disabled gate above stays <= 2%).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/kernel_harness.h"
#include "src/safety/compiler.h"
#include "src/svm/svm.h"
#include "src/trace/metrics.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace sva::bench {
namespace {

using kernel::Sys;

void SetTracerMode(uint32_t mode) {
  if (mode == trace::kModeOff) {
    trace::Tracer::Get().Disable();
  } else {
    trace::Tracer::Get().Enable(mode);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median over blocks of on[b] / off[b] - 1, as a percentage. Each block
// pair ran back to back, so a host slowdown spanning both cancels.
double MedianBlockOverheadPct(const std::vector<double>& on,
                              const std::vector<double>& off) {
  std::vector<double> ratios;
  for (size_t b = 0; b < on.size(); ++b) {
    ratios.push_back(off[b] > 0 ? on[b] / off[b] : 1.0);
  }
  return 100.0 * (Median(ratios) - 1.0);
}

// --- Site-level: cost of one tracepoint per tracer state ---------------------

double SitePassUs(int iters) {
  // The probe is a span with a histogram, as on the syscall path: what
  // metrics mode actually runs (two clock reads and one observation per
  // site). volatile sink keeps the loop itself from folding away.
  volatile uint64_t sink = 0;
  return TimeOnceUs([&] {
    for (int i = 0; i < iters; ++i) {
      trace::Span span(trace::EventId::kSyscall, trace::HistId::kSyscallNs,
                       static_cast<uint64_t>(i));
      sink = sink + 1;
    }
  });
}

double BaselinePassUs(int iters) {
  volatile uint64_t sink = 0;
  return TimeOnceUs([&] {
    for (int i = 0; i < iters; ++i) {
      sink = sink + 1;
    }
  });
}

double RunSiteBench(bool quick) {
  const int iters = quick ? 500000 : 2000000;
  const int reps = quick ? 5 : 9;
  std::printf(
      "Phase 1: per-tracepoint cost (loop of %d sites, median of %d "
      "paired differences)\n\n",
      iters, reps);
  struct State {
    const char* name;
    uint32_t mode;
  };
  const State states[] = {
      {"disabled", trace::kModeOff},
      {"metrics", trace::kModeMetrics},
      {"full (ring)", trace::kModeFull},
  };
  Table table({"Tracer state", "ns/site", "vs empty loop"});
  double disabled_ns = 0;
  for (const State& s : states) {
    SetTracerMode(s.mode);
    // Each probe pass runs right after an empty-loop pass, so a host
    // slowdown spanning the pair cancels in the per-pair difference.
    std::vector<double> empty_us, probe_us, diff_us;
    for (int r = 0; r < reps; ++r) {
      empty_us.push_back(BaselinePassUs(iters));
      probe_us.push_back(SitePassUs(iters));
      diff_us.push_back(probe_us.back() - empty_us.back());
    }
    double ns_per_site = std::max(0.0, Median(diff_us)) * 1000.0 / iters;
    if (s.mode == trace::kModeOff) {
      disabled_ns = ns_per_site;
    }
    table.AddRow({s.name, Fmt("%.2f", ns_per_site),
                  Fmt("%+.1f%%", MedianBlockOverheadPct(probe_us, empty_us))});
    JsonReport::Get().Add(std::string("tracepoint ns (") + s.name + ")",
                          ns_per_site, "ns");
  }
  trace::Tracer::Get().Disable();
  trace::Metrics::Get().Reset();
  table.Print();
  // Paired with the empty loop, the disabled loop usually runs faster (a
  // loop-shape effect, not a negative cost), so its cost clamps to 0.
  std::printf("\n(disabled site: %.2f ns — the single-branch target%s)\n\n",
              disabled_ns,
              disabled_ns == 0 ? "; below this loop's resolution" : "");
  return disabled_ns;
}

// --- End-to-end: the Table 7 workload under each tracer state ----------------

struct Workload {
  std::string name;
  std::function<void(BootedKernel&)> op;
  int iters;
};

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> w;
  w.push_back({"getpid", [](BootedKernel& k) { k.Call(Sys::kGetPid); }, 400});
  w.push_back({"open+close",
               [](BootedKernel& k) {
                 uint64_t fd = k.Call(Sys::kOpen, k.user(0), 0);
                 k.Call(Sys::kClose, fd);
               },
               200});
  w.push_back({"pipe w+r",
               [](BootedKernel& k) {
                 k.Call(Sys::kWrite, k.wfd, k.user(4096), 512);
                 k.Call(Sys::kRead, k.rfd, k.user(8192), 512);
               },
               200});
  return w;
}

void RunEndToEnd(bool quick, double disabled_site_ns) {
  const size_t blocks = quick ? 15 : 61;
  std::printf(
      "Phase 2: Table 7 syscall workload on Linux-SVA-Safe, per tracer "
      "state (%zu interleaved blocks; medians of per-block ratios)\n\n",
      blocks);
  constexpr size_t kStates = 3;
  struct State {
    const char* name;
    uint32_t mode;
  };
  const State states[kStates] = {
      {"off", trace::kModeOff},
      {"metrics", trace::kModeMetrics},
      {"full", trace::kModeFull},
  };
  Table table({"Test", "off (us)", "metrics (%)", "full (%)",
               "events/op"});
  double total_site_ns = 0;
  double total_off_ns = 0;
  // Per-block sums over the workloads: one op of each, the Table 7 mix.
  std::vector<double> mix[kStates];
  for (std::vector<double>& m : mix) {
    m.assign(blocks, 0.0);
  }
  for (Workload& w : BuildWorkloads()) {
    BootedKernel k(kernel::KernelMode::kSvaSafe);
    (void)k.k().PokeUserString(k.user(0), "/dev/null");
    k.Call(Sys::kPipe, k.user(128));
    uint32_t fds[2];
    (void)k.k().PeekUser(k.user(128), fds, 8);
    k.rfd = fds[0];
    k.wfd = fds[1];
    for (int warm = 0; warm < 20; ++warm) {
      w.op(k);
    }
    // Tracepoint density: events recorded per operation with the ring on.
    trace::Tracer::Get().Enable(trace::kModeRing);
    for (int i = 0; i < 50; ++i) {
      w.op(k);
    }
    double events_per_op =
        static_cast<double>(trace::Tracer::Get().events_recorded()) / 50.0;
    trace::Tracer::Get().Disable();

    // One block times every state once, in an order rotated per block so
    // no state always runs first.
    std::vector<double> us[kStates];
    for (size_t b = 0; b < blocks; ++b) {
      for (size_t i = 0; i < kStates; ++i) {
        size_t s = (b + i) % kStates;
        SetTracerMode(states[s].mode);
        double t = TimeOnceUs([&] {
                     for (int n = 0; n < w.iters; ++n) {
                       w.op(k);
                     }
                   }) /
                   w.iters;
        us[s].push_back(t);
        mix[s][b] += t;
      }
    }
    trace::Tracer::Get().Disable();
    for (size_t s = 0; s < kStates; ++s) {
      JsonReport::Get().Add(w.name + " latency", Median(us[s]), "us",
                            std::string("trace-") + states[s].name);
    }
    double metrics_pct = MedianBlockOverheadPct(us[1], us[0]);
    double full_pct = MedianBlockOverheadPct(us[2], us[0]);
    JsonReport::Get().Add("measured metrics overhead", metrics_pct, "%",
                          w.name);
    // The disabled-overhead estimate: a disabled site's cost can't be
    // separated from run-to-run noise end to end (it is ~0.4 ns against
    // syscalls measured in hundreds), so bound it from the measured
    // tracepoint density times the phase-1 per-site cost — itself an
    // upper bound, since in situ the branch predictor sees each site far
    // less often than the microbench loop does.
    double off_us = Median(us[0]);
    total_site_ns += events_per_op * disabled_site_ns;
    total_off_ns += off_us * 1000.0;
    JsonReport::Get().Add(w.name + " events/op", events_per_op, "events");
    table.AddRow({w.name, Fmt("%.3f", off_us), Fmt("%+.1f", metrics_pct),
                  Fmt("%+.1f", full_pct), Fmt("%.1f", events_per_op)});
  }
  trace::Metrics::Get().Reset();
  trace::Tracer::Get().Reset();
  double mix_metrics_pct = MedianBlockOverheadPct(mix[1], mix[0]);
  table.AddRow({"table7-mix", Fmt("%.3f", Median(mix[0])),
                Fmt("%+.1f", mix_metrics_pct),
                Fmt("%+.1f", MedianBlockOverheadPct(mix[2], mix[0])), "-"});
  JsonReport::Get().Add("measured metrics overhead", mix_metrics_pct, "%",
                        "table7-mix");
  table.Print();
  double estimated_pct =
      total_off_ns > 0 ? 100.0 * total_site_ns / total_off_ns : 0;
  std::printf(
      "\n=> estimated disabled-tracepoint overhead <= %.2f%% over the "
      "workload (target: <= 2%%)\n",
      estimated_pct);
  JsonReport::Get().Add("estimated disabled overhead", estimated_pct, "%");
  if (estimated_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: disabled tracepoints cost more than 2%% of the "
                 "workload\n");
    std::exit(1);
  }
}

// --- Phase 3: the sampling profiler's hook + session cost --------------------

// One profiler context push/pop pair, exactly the call-site idiom the
// kernel syscall dispatcher uses. With no session live this measures the
// prof_enabled() branch; with a session live, the full seqlock'd pair.
double ProfPairPassUs(int iters) {
  static const uint32_t kProbeId = trace::InternProfName("bench:probe");
  volatile uint64_t sink = 0;
  return TimeOnceUs([&] {
    for (int i = 0; i < iters; ++i) {
      trace::ProfContextScope prof;
      if (trace::prof_enabled()) {
        prof.Enter(trace::ProfContext::kKernelSyscall, kProbeId, 1, 1);
      }
      sink = sink + 1;
    }
  });
}

double MedianPassNs(int reps, int iters, double baseline_us,
                    const std::function<double(int)>& pass) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    samples.push_back(pass(iters));
  }
  return std::max(0.0, Median(samples) - baseline_us) * 1000.0 / iters;
}

// The table7 bytecode workload through the full pipeline (safety compiler
// -> verifier -> type check -> SVM), local to this bench so the profiler
// phase exercises real guest frames on both tiers.
constexpr char kProfBytecode[] = R"(
module "trace_overhead_bytecode"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @syscall_like(i64 %len) {
entry:
  %buf = call i8* @kmalloc(i64 256)
  br label %copy
copy:
  %i = phi i64 [ 0, %entry ], [ %i2, %copy ]
  %sum = phi i64 [ 0, %entry ], [ %sum2, %copy ]
  %src = getelementptr i8* %buf, i64 %i
  %b = load i8, i8* %src
  %off = add i64 %i, 128
  %dst = getelementptr i8* %buf, i64 %off
  store i8 %b, i8* %dst
  %wide = zext i8 %b to i64
  %sum2 = add i64 %sum, %wide
  %i2 = add i64 %i, 1
  %done = icmp uge i64 %i2, %len
  br i1 %done, label %exit, label %copy
exit:
  call void @kfree(i8* %buf)
  ret i64 %sum2
}
)";

std::unique_ptr<svm::LoadedModule> LoadProfTierModule(svm::ExecTier tier) {
  auto fatal = [](const char* stage, const Status& s) {
    std::fprintf(stderr, "trace_overhead: bytecode %s failed: %s\n", stage,
                 s.ToString().c_str());
    std::exit(1);
  };
  auto parsed = vir::ParseModule(kProfBytecode);
  if (!parsed.ok()) fatal("parse", parsed.status());
  auto module = std::move(*parsed);
  safety::SafetyCompilerOptions copts;
  auto compiled = safety::RunSafetyCompiler(*module, copts);
  if (!compiled.ok()) fatal("safety compile", compiled.status());
  Status verified = vir::VerifyModule(*module);
  if (!verified.ok()) fatal("verify", verified);
  Status typed = verifier::TypeCheckOrError(*module);
  if (!typed.ok()) fatal("type check", typed);
  svm::SvmOptions options;
  options.interp.tier = tier;
  svm::SecureVirtualMachine vm(options);
  auto loaded = vm.LoadModule(std::move(module));
  if (!loaded.ok()) fatal("load", loaded.status());
  return std::move(*loaded);
}

void RunProfilingPhase(bool quick) {
  const int reps = quick ? 5 : 15;
  const int site_iters = quick ? 200000 : 1000000;
  std::printf(
      "\nPhase 3: sampling-profiler cost (hook pair over %d sites, "
      "median of %d)\n\n",
      site_iters, reps);

  std::vector<double> baseline_samples;
  for (int r = 0; r < reps; ++r) {
    baseline_samples.push_back(BaselinePassUs(site_iters));
  }
  double baseline = Median(baseline_samples);
  double pair_off_ns =
      MedianPassNs(reps, site_iters, baseline, ProfPairPassUs);

  // The measured workloads and their hook densities. Hook counts follow
  // from the instrumentation sites: on the SVA-Safe kernel each syscall
  // pushes one context in HandleSyscall and one in the SVA-OS dispatcher;
  // on the execution tiers each guest function entry pushes one frame (the
  // workload is a single-function call per op).
  struct ProfWorkload {
    std::string name;
    std::string mode;  // JSON mode tag the estimate is reported under.
    std::function<void()> op;
    int iters;
    double hooks_per_op;
  };
  auto kernel_harness =
      std::make_shared<BootedKernel>(kernel::KernelMode::kSvaSafe);
  {
    BootedKernel& k = *kernel_harness;
    (void)k.k().PokeUserString(k.user(0), "/dev/null");
    k.Call(Sys::kPipe, k.user(128));
    uint32_t fds[2];
    (void)k.k().PeekUser(k.user(128), fds, 8);
    k.rfd = fds[0];
    k.wfd = fds[1];
  }
  std::shared_ptr<svm::LoadedModule> interp_module =
      LoadProfTierModule(svm::ExecTier::kInterp);
  std::shared_ptr<svm::LoadedModule> threaded_module =
      LoadProfTierModule(svm::ExecTier::kThreaded);
  auto guest_op = [](std::shared_ptr<svm::LoadedModule> m) {
    return [m] {
      svm::ExecResult r = m->Run("syscall_like", {64});
      if (!r.status.ok()) {
        std::fprintf(stderr, "trace_overhead: bytecode run failed: %s\n",
                     r.status.ToString().c_str());
        std::exit(1);
      }
    };
  };
  std::vector<ProfWorkload> workloads;
  workloads.push_back({"getpid", "sva-safe",
                       [kernel_harness] {
                         kernel_harness->Call(Sys::kGetPid);
                       },
                       400, 2.0});
  workloads.push_back({"pipe w+r", "sva-safe",
                       [kernel_harness] {
                         BootedKernel& k = *kernel_harness;
                         k.Call(Sys::kWrite, k.wfd, k.user(4096), 512);
                         k.Call(Sys::kRead, k.rfd, k.user(8192), 512);
                       },
                       200, 4.0});
  workloads.push_back({"bytecode interp", "tier-interp",
                       guest_op(interp_module), 100, 1.0});
  workloads.push_back({"bytecode threaded", "tier-threaded",
                       guest_op(threaded_module), 200, 1.0});

  // Per-op latency with no session live.
  std::vector<double> off_us(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    for (int warm = 0; warm < 20; ++warm) {
      workloads[w].op();
    }
    off_us[w] = MedianLatencyUs(reps, workloads[w].iters, workloads[w].op);
  }

  // Live session: the sampler runs on its own thread for the rest of the
  // phase, so the hook pair is measured at its real (seqlock'd) cost and
  // the run collects actual samples. --quick samples at ~10 kHz so even a
  // short run records a meaningful count.
  trace::Profiler::Options popts;
  popts.hz = quick ? 9973 : 997;
  popts.num_cpus = 1;
  if (!trace::Profiler::Get().Start(popts)) {
    std::fprintf(stderr, "trace_overhead: cannot start profiler\n");
    std::exit(1);
  }
  double pair_on_ns =
      MedianPassNs(reps, site_iters, baseline, ProfPairPassUs);
  std::vector<double> on_us(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    on_us[w] = MedianLatencyUs(reps, workloads[w].iters, workloads[w].op);
  }
  trace::Profiler::Get().Stop();
  uint64_t prof_samples = trace::Profiler::Get().stats().samples;

  std::printf("hook pair: %.2f ns disabled, %.2f ns with session live\n\n",
              pair_off_ns, pair_on_ns);
  JsonReport::Get().Add("prof hook ns (disabled)", pair_off_ns, "ns");
  JsonReport::Get().Add("prof hook ns (profiling)", pair_on_ns, "ns");

  // The gate mirrors the phase-2 disabled estimate: the hook cost is
  // bounded analytically (density x measured pair cost over the workload's
  // unprofiled time) because the end-to-end "profiling (us)" column cannot
  // be read as hook cost — on hosts with one hardware thread the sampler
  // thread time-slices with the workload and the measured delta is
  // scheduler noise, not producer overhead (the same caveat c10k's p99
  // gate documents). Gated three ways, per the acceptance bar: the
  // aggregated Table 7 mix and each execution tier individually.
  Table table({"Workload", "off (us)", "profiling (us)", "hooks/op",
               "est. overhead"});
  bool failed = false;
  double total_hook_ns = 0;
  double total_off_ns = 0;
  for (size_t w = 0; w < workloads.size(); ++w) {
    const ProfWorkload& wl = workloads[w];
    double est_pct = off_us[w] <= 0
                         ? 0
                         : 100.0 * (wl.hooks_per_op * pair_on_ns) /
                               (off_us[w] * 1000.0);
    total_hook_ns += wl.hooks_per_op * pair_on_ns;
    total_off_ns += off_us[w] * 1000.0;
    table.AddRow({wl.name, Fmt("%.3f", off_us[w]), Fmt("%.3f", on_us[w]),
                  Fmt("%.0f", wl.hooks_per_op), Fmt("%.2f%%", est_pct)});
    JsonReport::Get().Add(wl.name + " latency", on_us[w], "us",
                          "profiling");
    if (wl.mode == "tier-interp" || wl.mode == "tier-threaded") {
      // Per-tier gate: one frame push/pop against a whole bytecode run.
      JsonReport::Get().Add("estimated profiling overhead", est_pct, "%",
                            wl.mode);
      if (est_pct > 5.0) {
        failed = true;
      }
    }
  }
  table.Print();
  double mix_pct =
      total_off_ns > 0 ? 100.0 * total_hook_ns / total_off_ns : 0;
  JsonReport::Get().Add("estimated profiling overhead", mix_pct, "%",
                        "table7-mix");
  JsonReport::Get().Add("prof samples",
                        static_cast<double>(prof_samples), "samples");
  std::printf(
      "\n=> %llu samples collected; estimated profiling overhead <= %.2f%% "
      "over the workload (target: <= 5%%, per tier and in aggregate)\n",
      static_cast<unsigned long long>(prof_samples), mix_pct);
  if (mix_pct > 5.0) {
    failed = true;
  }
  if (failed) {
    std::fprintf(stderr,
                 "FAIL: profiling hooks cost more than 5%% of the "
                 "workload\n");
    std::exit(1);
  }
  if (prof_samples == 0) {
    std::fprintf(stderr, "FAIL: profiling session recorded no samples\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace sva::bench

int main(int argc, char** argv) {
  auto& report = sva::bench::JsonReport::Get();
  report.Init(&argc, argv, "trace_overhead");
  double disabled_site_ns = sva::bench::RunSiteBench(report.quick());
  sva::bench::RunEndToEnd(report.quick(), disabled_site_ns);
  sva::bench::RunProfilingPhase(report.quick());
  return report.Finish();
}
