// Ablation bench for the design choices and the Section 7.1.3 planned
// optimizations:
//
//  * splay-tree bounds check vs direct ("fat-pointer"-style) bounds check
//    — optimization 1 of Section 7.1.3;
//  * static elision of provably-safe GEP checks — optimization 3;
//  * skipping load-store checks on type-homogeneous pools — the core
//    SAFECode design choice that makes partitioning pay off;
//  * splay lookup cost as the pool's object count grows;
//  * check elimination (Section 7.1.3 optimization 2 and two classic
//    redundancy steps): one row per step turned off, with the static count
//    each step removed as its own column (ranges = per-iteration checks
//    replaced by preheader range checks, hoisted, dups) and the checks one
//    run performs (checks/run).
//
// Uses google-benchmark.
#include <benchmark/benchmark.h>

#include "bench/common.h"

#include "src/runtime/metapool_runtime.h"
#include "src/safety/compiler.h"
#include "src/svm/svm.h"
#include "src/vir/parser.h"

namespace sva::bench {
namespace {

// --- Runtime-level ablations ----------------------------------------------------

// Shared body for the splay-vs-cache bounds check ablation. The probe
// rotates over a few objects to defeat pure splay-root hits while keeping
// locality realistic; with the lookup cache enabled both hot objects fit
// in the 4-way cache, so most checks never reach the tree.
void BoundsCheckSplayBody(benchmark::State& state, bool use_cache) {
  runtime::MetaPoolRuntime rt;
  rt.set_lookup_cache_enabled(use_cache);
  runtime::MetaPool* pool = rt.CreatePool("MP", false, 0, true);
  const int64_t objects = state.range(0);
  for (int64_t i = 0; i < objects; ++i) {
    (void)rt.RegisterObject(*pool, 0x10000 + static_cast<uint64_t>(i) * 256,
                            128);
  }
  rt.ResetStats();
  uint64_t base = 0x10000 + static_cast<uint64_t>(objects / 2) * 256;
  uint64_t probe = base;
  for (auto _ : state) {
    probe = probe == base ? base + 2560 : base;
    benchmark::DoNotOptimize(rt.BoundsCheck(*pool, probe, probe + 64));
  }
  const runtime::CheckStats& stats = rt.stats();
  if (stats.bounds_performed > 0) {
    state.counters["cmp/check"] = benchmark::Counter(
        static_cast<double>(stats.splay_comparisons) /
        static_cast<double>(stats.bounds_performed));
  }
  state.counters["hit_rate"] =
      benchmark::Counter(stats.cache_hit_rate());
}

void BM_BoundsCheckSplay(benchmark::State& state) {
  // The pre-cache configuration: every check pays the splay lookup.
  BoundsCheckSplayBody(state, /*use_cache=*/false);
}
BENCHMARK(BM_BoundsCheckSplay)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BoundsCheckCached(benchmark::State& state) {
  BoundsCheckSplayBody(state, /*use_cache=*/true);
}
BENCHMARK(BM_BoundsCheckCached)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BoundsCheckDirect(benchmark::State& state) {
  runtime::MetaPoolRuntime rt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.BoundsCheckDirect(0x10000, 0x10040, 0x10080));
  }
}
BENCHMARK(BM_BoundsCheckDirect);

void BM_LoadStoreCheck(benchmark::State& state) {
  runtime::MetaPoolRuntime rt;
  runtime::MetaPool* pool = rt.CreatePool("MP", false, 0, true);
  for (int i = 0; i < 1024; ++i) {
    (void)rt.RegisterObject(*pool, 0x10000 + static_cast<uint64_t>(i) * 256,
                            128);
  }
  uint64_t probe = 0x10000 + 512 * 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.LoadStoreCheck(*pool, probe));
  }
}
BENCHMARK(BM_LoadStoreCheck);

// --- Whole-pipeline ablations ------------------------------------------------------

constexpr const char* kWorkload = R"(
module "ablate"
%node = type { i64, i64 }
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @churn(i64 %rounds) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %raw = call i8* @kmalloc(i64 64)
  %idx = and i64 %i, 7
  %scaled = mul i64 %idx, 8
  %slot8 = getelementptr i8* %raw, i64 %scaled
  %slot = bitcast i8* %slot8 to i64*
  store i64 %i, i64* %slot
  %v = load i64, i64* %slot
  %acc2 = add i64 %acc, %v
  call void @kfree(i8* %raw)
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, %rounds
  br i1 %more, label %loop, label %done
done:
  ret i64 %acc2
}
)";

// One churn execution under a given compiler configuration.
void RunPipeline(benchmark::State& state,
                 const safety::SafetyCompilerOptions& options,
                 bool enforce, bool use_lookup_cache = true) {
  auto m = vir::ParseModule(kWorkload);
  if (!m.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  auto report = safety::RunSafetyCompiler(**m, options);
  if (!report.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  svm::SvmOptions svm_options;
  svm_options.interp.enforce_checks = enforce;
  svm_options.interp.use_lookup_cache = use_lookup_cache;
  svm::SecureVirtualMachine vm(svm_options);
  auto loaded = vm.LoadModule(std::move(m).value());
  if (!loaded.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  for (auto _ : state) {
    auto r = (*loaded)->Run("churn", {200});
    if (!r.status.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    benchmark::DoNotOptimize(r.value);
  }
}

void BM_PipelineChecksOff(benchmark::State& state) {
  safety::SafetyCompilerOptions options;
  RunPipeline(state, options, /*enforce=*/false);
}
BENCHMARK(BM_PipelineChecksOff);

void BM_PipelineFullChecks(benchmark::State& state) {
  safety::SafetyCompilerOptions options;
  RunPipeline(state, options, /*enforce=*/true);
}
BENCHMARK(BM_PipelineFullChecks);

void BM_PipelineNoLookupCache(benchmark::State& state) {
  // Ablate the metapool lookup cache: all surviving splay-tree checks pay
  // the full tree lookup.
  safety::SafetyCompilerOptions options;
  RunPipeline(state, options, /*enforce=*/true, /*use_lookup_cache=*/false);
}
BENCHMARK(BM_PipelineNoLookupCache);

void BM_PipelineNoDirectBounds(benchmark::State& state) {
  // Ablate Section 7.1.3 optimization 1: force splay lookups even where
  // object bounds are statically known.
  safety::SafetyCompilerOptions options;
  options.use_direct_bounds = false;
  RunPipeline(state, options, /*enforce=*/true);
}
BENCHMARK(BM_PipelineNoDirectBounds);

void BM_PipelineNoStaticElision(benchmark::State& state) {
  // Ablate optimization 3: bounds-check even provably-safe constant GEPs.
  safety::SafetyCompilerOptions options;
  options.elide_static_safe_bounds = false;
  RunPipeline(state, options, /*enforce=*/true);
}
BENCHMARK(BM_PipelineNoStaticElision);

void BM_PipelineNoTHElision(benchmark::State& state) {
  // Ablate the SAFECode TH optimization: load-store check even TH pools.
  safety::SafetyCompilerOptions options;
  options.elide_th_loadstore = false;
  RunPipeline(state, options, /*enforce=*/true);
}
BENCHMARK(BM_PipelineNoTHElision);

// A byte-summing loop over a kmalloc'd buffer that also bumps a non-TH
// global each iteration: every elimination step has work here.
constexpr const char* kLoopWorkload = R"(
module "ablate_loop"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)
global @ticks : i64

define i64 @sum(i8* %buf, i64 %len) {
entry:
  %zero = icmp eq i64 %len, 0
  br i1 %zero, label %done, label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %slot = getelementptr i8* %buf, i64 %i
  %v = load i8, i8* %slot
  %v64 = zext i8 %v to i64
  %acc2 = add i64 %acc, %v64
  %t = load i64, i64* @ticks
  %t2 = add i64 %t, 1
  store i64 %t2, i64* @ticks
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, %len
  br i1 %more, label %loop, label %done
done:
  %r = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  ret i64 %r
}

define i64 @churn(i64 %len) {
entry:
  %tb = bitcast i64* @ticks to i8*
  store i8 0, i8* %tb
  %buf = call i8* @kmalloc(i64 256)
  %r = call i64 @sum(i8* %buf, i64 %len)
  call void @kfree(i8* %buf)
  ret i64 %r
}
)";

void RunLoopPipeline(benchmark::State& state,
                     safety::CheckEliminationOptions elimination) {
  auto m = vir::ParseModule(kLoopWorkload);
  if (!m.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  safety::SafetyCompilerOptions options;
  options.analysis.whole_program = true;
  options.analysis.entry_points = {"churn"};
  options.elimination = elimination;
  auto report = safety::RunSafetyCompiler(**m, options);
  if (!report.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  svm::SecureVirtualMachine vm;
  auto loaded = vm.LoadModule(std::move(m).value());
  if (!loaded.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const uint64_t before = (*loaded)->pools().stats().total_performed();
  uint64_t runs = 0;
  for (auto _ : state) {
    auto r = (*loaded)->Run("churn", {256});
    if (!r.status.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    benchmark::DoNotOptimize(r.value);
    ++runs;
  }
  const safety::CheckEliminationReport& e = report->eliminated;
  state.counters["ranges"] = static_cast<double>(e.range_covered);
  state.counters["hoisted"] = static_cast<double>(e.hoisted);
  state.counters["dups"] = static_cast<double>(e.duplicates);
  state.counters["checks/run"] =
      static_cast<double>((*loaded)->pools().stats().total_performed() -
                          before) /
      static_cast<double>(runs == 0 ? 1 : runs);
}

void BM_LoopEliminationAll(benchmark::State& state) {
  RunLoopPipeline(state, {});
}
BENCHMARK(BM_LoopEliminationAll);

void BM_LoopEliminationNoRanges(benchmark::State& state) {
  RunLoopPipeline(state, {.monotonic_ranges = false});
}
BENCHMARK(BM_LoopEliminationNoRanges);

void BM_LoopEliminationNoHoist(benchmark::State& state) {
  RunLoopPipeline(state, {.hoist_invariant = false});
}
BENCHMARK(BM_LoopEliminationNoHoist);

void BM_LoopEliminationNoDuplicates(benchmark::State& state) {
  RunLoopPipeline(state, {.dominated_duplicates = false});
}
BENCHMARK(BM_LoopEliminationNoDuplicates);

void BM_LoopEliminationOff(benchmark::State& state) {
  RunLoopPipeline(state, {false, false, false});
}
BENCHMARK(BM_LoopEliminationOff);

}  // namespace
}  // namespace sva::bench

// Console output plus JSON capture: every finished benchmark run is also
// recorded into the shared --json report.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      sva::bench::JsonReport::Get().Add(
          run.benchmark_name(), run.GetAdjustedRealTime(),
          benchmark::GetTimeUnitString(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

int main(int argc, char** argv) {
  sva::bench::JsonReport::Get().Init(&argc, argv, "ablation_optimizations");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return sva::bench::JsonReport::Get().Finish();
}

