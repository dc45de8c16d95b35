// Table 7 reproduction: "Latency increase for raw kernel operations as a
// percentage of Linux native performance" — the HBench-OS raw syscall
// latency microbenchmarks (getpid, getrusage, gettimeofday, open/close,
// sbrk, sigaction, write, pipe, fork, fork/exec) across the four kernel
// configurations.
//
// Expected shape (paper): SVA-OS entry cost dominates trivial syscalls
// (getpid ~21-29%); run-time checks dominate allocation/copy-heavy ones
// (open/close 386%, pipe 280%, sigaction 123%, fork 74%).
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/kernel_harness.h"
#include "src/safety/compiler.h"
#include "src/trace/profiler.h"
#include "src/svm/svm.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace sva::bench {
namespace {

using kernel::Sys;

struct MicroBench {
  std::string name;
  // Runs one iteration of the operation against the booted kernel.
  std::function<void(BootedKernel&)> op;
  int iters = 200;
};

std::vector<MicroBench> BuildBenches() {
  std::vector<MicroBench> benches;
  benches.push_back({"getpid",
                     [](BootedKernel& k) { k.Call(Sys::kGetPid); }, 400});
  benches.push_back({"getrusage",
                     [](BootedKernel& k) {
                       k.Call(Sys::kGetRusage, k.user(512));
                     },
                     300});
  benches.push_back({"gettimeofday",
                     [](BootedKernel& k) {
                       k.Call(Sys::kGetTimeOfDay, k.user(512));
                     },
                     300});
  benches.push_back({"open/close",
                     [](BootedKernel& k) {
                       uint64_t fd = k.Call(Sys::kOpen, k.user(0), 1);
                       k.Call(Sys::kClose, fd);
                     },
                     200});
  benches.push_back({"sbrk",
                     [](BootedKernel& k) { k.Call(Sys::kBrk, 0); }, 400});
  benches.push_back({"sigaction",
                     [](BootedKernel& k) {
                       k.Call(Sys::kSigaction, 12, 5);
                     },
                     300});
  benches.push_back({"write (/dev/null)",
                     [](BootedKernel& k) {
                       k.Call(Sys::kWrite, 0, k.user(1024), 64);
                     },
                     300});
  benches.push_back({"pipe (create+rw+close)",
                     [](BootedKernel& k) {
                       k.Call(Sys::kPipe, k.user(128));
                       uint32_t fds[2];
                       (void)k.k().PeekUser(k.user(128), fds, 8);
                       k.Call(Sys::kWrite, fds[1], k.user(1024), 512);
                       k.Call(Sys::kRead, fds[0], k.user(2048), 512);
                       k.Call(Sys::kClose, fds[0]);
                       k.Call(Sys::kClose, fds[1]);
                     },
                     80});
  benches.push_back({"fork (+reap)",
                     [](BootedKernel& k) {
                       uint64_t child = k.Call(Sys::kFork);
                       (void)k.k().Yield();
                       k.Call(Sys::kExit, 0);
                       k.Call(Sys::kWaitPid, child);
                     },
                     60});
  benches.push_back({"fork/exec (+reap)",
                     [](BootedKernel& k) {
                       uint64_t child = k.Call(Sys::kFork);
                       (void)k.k().Yield();
                       k.Call(Sys::kExecve, k.user(0));
                       k.Call(Sys::kExit, 0);
                       k.Call(Sys::kWaitPid, child);
                     },
                     60});
  return benches;
}

// A syscall-shaped bytecode workload for the execution-tier comparison:
// allocate a kernel object, copy through it byte-by-byte (every access
// load/store-checked against the metapool), then free it — the same
// alloc + copy + free shape that dominates open/close and pipe in the
// kernel table above, but expressed as verified SVA bytecode so it runs on
// the SVM's execution tiers.
constexpr char kBytecodeSyscall[] = R"(
module "table7_bytecode"
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

// The full pipeline (safety compiler -> verifier -> type check -> SVM), so
// the workload carries the instrumented pchk.* checks like real kernel
// bytecode.
std::unique_ptr<svm::LoadedModule> LoadTierModule(const char* text,
                                                  svm::ExecTier tier) {
  auto fatal = [](const char* stage, const Status& s) {
    std::fprintf(stderr, "table7: bytecode %s failed: %s\n", stage,
                 s.ToString().c_str());
    std::exit(1);
  };
  auto parsed = vir::ParseModule(text);
  if (!parsed.ok()) fatal("parse", parsed.status());
  auto module = std::move(*parsed);
  safety::SafetyCompilerOptions copts;
  auto report = safety::RunSafetyCompiler(*module, copts);
  if (!report.ok()) fatal("safety compile", report.status());
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

// Runs the bytecode workload on one execution tier (safe mode: all checks
// enforced) and returns the median per-call latency in microseconds.
double TimeBytecodeTier(svm::ExecTier tier, int reps, int iters) {
  std::unique_ptr<svm::LoadedModule> loaded =
      LoadTierModule(kBytecodeSyscall, tier);
  auto call_once = [&] {
    svm::ExecResult r = loaded->Run("syscall_like", {64});
    if (!r.status.ok()) {
      std::fprintf(stderr, "table7: bytecode run failed: %s\n",
                   r.status.ToString().c_str());
      std::exit(1);
    }
  };
  for (int warm = 0; warm < 20; ++warm) {
    call_once();  // Warm allocator slabs, splay trees, and the decoder.
  }
  return MedianLatencyUs(reps, iters, call_once);
}

// The execution-tier comparison the threaded-code tier is gated on
// (tools/check-bench-regress): the same safe-mode workload, interpreter vs
// threaded dispatch.
void RunTierComparison() {
  bool quick = JsonReport::Get().quick();
  int reps = quick ? 9 : 31;
  int iters = quick ? 40 : 200;
  double interp_us = TimeBytecodeTier(svm::ExecTier::kInterp, reps, iters);
  double threaded_us =
      TimeBytecodeTier(svm::ExecTier::kThreaded, reps, iters);
  std::printf(
      "\nExecution tiers on the syscall-shaped bytecode workload (SVA safe "
      "mode,\nmedian of %d trials):\n\n", reps);
  Table table({"Engine", "Latency (us/call)", "Speedup"});
  table.AddRow({"interpreter", Fmt("%.3f", interp_us), "1.00x"});
  table.AddRow({"threaded", Fmt("%.3f", threaded_us),
                Fmt("%.2fx", threaded_us <= 0 ? 0 : interp_us / threaded_us)});
  table.Print();
  JsonReport::Get().Add("bytecode_syscall", interp_us, "us", "tier-interp");
  JsonReport::Get().Add("bytecode_syscall", threaded_us, "us",
                        "tier-threaded");
}

void Run() {
  std::printf(
      "Table 7: latency of raw kernel operations (HBench-OS style; median "
      "of 50 trials)\n\n");
  Table table({"Test", "Native (us)", "SVA gcc (%)", "SVA llvm (%)",
               "SVA Safe (%)"});
  for (const MicroBench& bench : BuildBenches()) {
    // Boot all four kernels and interleave their trials so environmental
    // drift (frequency scaling, cache state) averages out across modes.
    std::vector<std::unique_ptr<BootedKernel>> kernels;
    for (int m = 0; m < 4; ++m) {
      kernels.push_back(std::make_unique<BootedKernel>(kAllModes[m]));
      BootedKernel& k = *kernels.back();
      (void)k.k().PokeUserString(k.user(0), "/dev/null");
      (void)k.Call(Sys::kOpen, k.user(0), 0);  // fd 0: /dev/null sink.
      for (int warm = 0; warm < 20; ++warm) {
        bench.op(k);  // Warm allocator slabs and splay trees.
      }
    }
    std::vector<double> samples[4];
    for (int rep = 0; rep < 50; ++rep) {
      for (int m = 0; m < 4; ++m) {
        BootedKernel& k = *kernels[m];
        double t = TimeOnceUs([&] {
          for (int i = 0; i < bench.iters; ++i) {
            bench.op(k);
          }
        });
        samples[m].push_back(t / bench.iters);
      }
    }
    double us[4];
    for (int m = 0; m < 4; ++m) {
      std::sort(samples[m].begin(), samples[m].end());
      us[m] = samples[m][samples[m].size() / 2];
    }
    table.AddRow({bench.name, Fmt("%.3f", us[0]),
                  Fmt("%.1f", OverheadPct(us[0], us[1])),
                  Fmt("%.1f", OverheadPct(us[0], us[2])),
                  Fmt("%.1f", OverheadPct(us[0], us[3]))});
    for (int m = 0; m < 4; ++m) {
      JsonReport::Get().Add(bench.name, us[m], "us",
                            kernel::KernelModeName(kAllModes[m]));
    }
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: SVA-OS cost dominates trivial calls; safety "
      "checks dominate\nallocation- and copy-heavy calls (open/close, pipe, "
      "fork).\n");
}

}  // namespace
}  // namespace sva::bench

int main(int argc, char** argv) {
  auto& report = sva::bench::JsonReport::Get();
  report.Init(&argc, argv, "table7_syscall_latency");
  // --tier-only: just the execution-tier comparison (the CI speedup gate
  // runs this so it never pays for the full four-kernel table).
  bool tier_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tier-only") == 0) {
      tier_only = true;
    }
  }
  // --profile: sample the whole run (single-CPU bench) and export folded
  // stacks plus a top-5 attribution block in the JSON report.
  if (!report.profile_out().empty()) {
    sva::trace::Profiler::Options popts;
    popts.num_cpus = 1;
    if (!sva::trace::Profiler::Get().Start(popts)) {
      std::fprintf(stderr, "cannot start profiler\n");
      return 1;
    }
  }
  if (!tier_only) {
    sva::bench::Run();
  }
  sva::bench::RunTierComparison();
  if (!report.profile_out().empty()) {
    sva::trace::Profiler& prof = sva::trace::Profiler::Get();
    prof.Stop();
    if (!prof.WriteFolded(report.profile_out())) {
      std::fprintf(stderr, "cannot write profile to %s\n",
                   report.profile_out().c_str());
      return 1;
    }
    report.Add("prof samples", static_cast<double>(prof.stats().samples),
               "samples");
    for (const auto& [stack, count] : prof.TopStacks(5)) {
      report.Add("prof top stack", static_cast<double>(count), "samples",
                 stack);
    }
  }
  return report.Finish();
}
