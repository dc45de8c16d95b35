// svm-run: loads SVA bytecode into the Secure Virtual Machine and executes
// an entry point with the run-time checks live.
//
// Usage:
//   svm-run module.svb|module.sva [--entry NAME] [--arg N]... [--no-checks] [--stats]
//           [--cpus N] [--tier interp|threaded]
//
// --tier selects the execution engine (default threaded); both tiers share
// semantics and checks, so the only visible difference should be speed —
// --stats reports which tier actually dispatched what.
//
// --cpus N runs N replicas of the VM on N worker threads, each bound to a
// virtual CPU, and requires every replica to reach the same result — the
// detection-parity harness for the SMP runtime (concurrency must never
// change what the checks catch).
//
// A textual module (an instrumented one, as `sva-cc --emit-text` prints it)
// is serialized and then loaded exactly like bytecode: verified and
// type-checked, rules R1-R8 included, before anything runs.
//
// Exit status: 0 on clean execution, 2 on a safety violation, 1 on other
// errors — usable from scripts and CI.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/runtime/metapool_runtime.h"
#include "src/smp/percpu.h"
#include "src/svm/svm.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/metrics.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"
#include "src/vir/bytecode.h"
#include "src/vir/parser.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "svm-run: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string entry = "main";
  std::vector<uint64_t> args;
  bool stats = false;
  std::string trace_out;
  std::string profile_out;
  unsigned cpus = 1;
  sva::svm::SvmOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--entry" && i + 1 < argc) {
      entry = argv[++i];
    } else if (arg == "--arg" && i + 1 < argc) {
      args.push_back(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--tier" && i + 1 < argc) {
      std::string tier = argv[++i];
      if (tier == "interp") {
        options.interp.tier = sva::svm::ExecTier::kInterp;
      } else if (tier == "threaded") {
        options.interp.tier = sva::svm::ExecTier::kThreaded;
      } else {
        return Fail("unknown tier " + tier + " (want interp|threaded)");
      }
    } else if (arg.rfind("--tier=", 0) == 0) {
      std::string tier = arg.substr(7);
      if (tier == "interp") {
        options.interp.tier = sva::svm::ExecTier::kInterp;
      } else if (tier == "threaded") {
        options.interp.tier = sva::svm::ExecTier::kThreaded;
      } else {
        return Fail("unknown tier " + tier + " (want interp|threaded)");
      }
    } else if (arg == "--no-checks") {
      options.interp.enforce_checks = false;
    } else if (arg == "--no-cache") {
      options.interp.use_lookup_cache = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_out = arg.substr(10);
    } else if (arg == "--cpus" && i + 1 < argc) {
      cpus = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
      if (cpus == 0) {
        cpus = 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: svm-run module.svb [--entry NAME] [--arg N]... "
                  "[--no-checks] [--no-cache] [--stats] [--cpus N] "
                  "[--tier interp|threaded] [--trace-out FILE] "
                  "[--profile FILE]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown option " + arg);
    } else {
      input = arg;
    }
  }
  if (input.empty()) {
    return Fail("no bytecode file (try --help)");
  }
  std::ifstream in(input, std::ios::binary);
  if (!in) {
    return Fail("cannot open " + input);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (!sva::vir::IsBytecode(bytes)) {
    auto parsed = sva::vir::ParseModule(std::string(bytes.begin(), bytes.end()));
    if (!parsed.ok()) {
      return Fail(parsed.status().ToString());
    }
    bytes = sva::vir::WriteBytecode(**parsed);
  }

  // One VM replica per virtual CPU. cpus == 1 is the plain single-VM path;
  // cpus > 1 runs every replica on its own worker thread and then insists
  // that all of them agree — concurrency in the check runtime must never
  // change the program's result or what the checks detect.
  struct ReplicaOutcome {
    bool load_ok = false;
    std::string load_error;
    sva::svm::ExecResult result;
  };
  // Tracing wraps the whole run (every replica records into its own
  // per-CPU ring); the rings are drained into one Chrome trace at exit.
  if (!trace_out.empty()) {
    sva::trace::Tracer::Get().Enable(sva::trace::kModeFull);
  }
  // Profiling wraps the whole run the same way: the free-running sampler
  // interrupts every replica CPU and attributes samples to guest functions
  // via the execution tiers' frame hooks.
  if (!profile_out.empty()) {
    sva::trace::Profiler::Options popts;
    popts.num_cpus = cpus;
    if (!sva::trace::Profiler::Get().Start(popts)) {
      return Fail("cannot start profiler");
    }
  }

  std::vector<sva::svm::SecureVirtualMachine> vms;
  vms.reserve(cpus);
  for (unsigned c = 0; c < cpus; ++c) {
    vms.emplace_back(options);
  }
  std::vector<ReplicaOutcome> outcomes(cpus);
  std::vector<std::unique_ptr<sva::svm::LoadedModule>> modules(cpus);
  auto run_replica = [&](unsigned c) {
    sva::smp::ScopedCpu bind(c);
    auto loaded = vms[c].LoadBytecode(bytes);
    if (!loaded.ok()) {
      outcomes[c].load_error = loaded.status().ToString();
      return;
    }
    outcomes[c].load_ok = true;
    modules[c] = std::move(*loaded);
    outcomes[c].result = modules[c]->Run(entry, args);
  };
  if (cpus == 1) {
    run_replica(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(cpus);
    for (unsigned c = 0; c < cpus; ++c) {
      workers.emplace_back(run_replica, c);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }

  if (!outcomes[0].load_ok) {
    return Fail("load rejected: " + outcomes[0].load_error);
  }
  for (unsigned c = 1; c < cpus; ++c) {
    if (outcomes[c].load_ok != outcomes[0].load_ok ||
        outcomes[c].result.status.code() != outcomes[0].result.status.code() ||
        (outcomes[c].result.status.ok() &&
         outcomes[c].result.value != outcomes[0].result.value)) {
      std::fprintf(stderr,
                   "svm-run: replica divergence: cpu 0 -> %s value %llu, "
                   "cpu %u -> %s value %llu\n",
                   outcomes[0].result.status.ToString().c_str(),
                   static_cast<unsigned long long>(outcomes[0].result.value),
                   c, outcomes[c].result.status.ToString().c_str(),
                   static_cast<unsigned long long>(outcomes[c].result.value));
      return 1;
    }
  }
  auto result = outcomes[0].result;
  if (!profile_out.empty()) {
    sva::trace::Profiler& prof = sva::trace::Profiler::Get();
    prof.Stop();
    if (!prof.WriteFolded(profile_out)) {
      return Fail("cannot write profile to " + profile_out);
    }
    sva::trace::Profiler::Stats pstats = prof.stats();
    std::fprintf(stderr,
                 "svm-run: wrote folded stacks to %s (%llu samples, %llu "
                 "lost, %llu truncated)\n",
                 profile_out.c_str(),
                 static_cast<unsigned long long>(pstats.samples),
                 static_cast<unsigned long long>(pstats.lost),
                 static_cast<unsigned long long>(pstats.stacks_truncated));
    for (const auto& [stack, count] : prof.TopStacks(5)) {
      std::fprintf(stderr, "svm-run:   %8llu  %s\n",
                   static_cast<unsigned long long>(count), stack.c_str());
    }
  }
  if (!trace_out.empty()) {
    sva::trace::Tracer& tracer = sva::trace::Tracer::Get();
    tracer.Disable();
    std::vector<sva::trace::Event> events = tracer.Drain();
    sva::Status written = sva::trace::WriteChromeTrace(trace_out, events);
    if (!written.ok()) {
      return Fail("trace write failed: " + written.ToString());
    }
    std::fprintf(stderr,
                 "svm-run: wrote %zu trace events to %s (%llu lost)\n",
                 events.size(), trace_out.c_str(),
                 static_cast<unsigned long long>(tracer.events_lost()));
  }
  if (stats) {
    // One aggregated CheckStats table across every replica's runtime: each
    // replica has its own MetaPoolRuntime whose stats() already folds its
    // SMP shards; sum those per-replica aggregates, then break the
    // fast-path counters out per metapool (summed across replicas by pool
    // name, since the replicas run identical programs).
    sva::runtime::CheckStats total;
    struct PoolRow {
      uint64_t live = 0, hits = 0, misses = 0, rotations = 0;
    };
    std::map<std::string, PoolRow> by_pool;
    for (unsigned c = 0; c < cpus; ++c) {
      const auto& cs = modules[c]->pools().stats();
      total.bounds_performed += cs.bounds_performed;
      total.bounds_failed += cs.bounds_failed;
      total.loadstore_performed += cs.loadstore_performed;
      total.loadstore_failed += cs.loadstore_failed;
      total.indirect_performed += cs.indirect_performed;
      total.indirect_failed += cs.indirect_failed;
      total.frees_checked += cs.frees_checked;
      total.frees_failed += cs.frees_failed;
      total.reduced_checks += cs.reduced_checks;
      total.registrations += cs.registrations;
      total.drops += cs.drops;
      total.cache_hits += cs.cache_hits;
      total.cache_misses += cs.cache_misses;
      total.splay_comparisons += cs.splay_comparisons;
      total.splay_rotations += cs.splay_rotations;
      for (const auto& [name, pool] : modules[c]->pools().pools()) {
        PoolRow& row = by_pool[name];
        row.live += pool->live_objects();
        row.hits += pool->cache_hits();
        row.misses += pool->cache_misses();
        row.rotations += pool->rotations();
      }
    }
    std::fprintf(stderr,
                 "svm-run: %llu instructions/replica, %u replica(s)\n",
                 static_cast<unsigned long long>(result.steps), cpus);
    const auto& tiers = sva::trace::TierCounters::Get();
    std::fprintf(
        stderr,
        "svm-run: tier dispatch: threaded %llu fns / %llu ops, interp "
        "%llu fns / %llu ops\n",
        static_cast<unsigned long long>(tiers.threaded_fns.load()),
        static_cast<unsigned long long>(tiers.threaded_ops.load()),
        static_cast<unsigned long long>(tiers.interp_fns.load()),
        static_cast<unsigned long long>(tiers.interp_ops.load()));
    std::fprintf(stderr,
                 "svm-run: %llu checks performed (%llu bounds, %llu "
                 "load/store, %llu indirect, %llu frees), %llu failed, "
                 "%llu elided\n",
                 static_cast<unsigned long long>(total.total_performed()),
                 static_cast<unsigned long long>(total.bounds_performed),
                 static_cast<unsigned long long>(total.loadstore_performed),
                 static_cast<unsigned long long>(total.indirect_performed),
                 static_cast<unsigned long long>(total.frees_checked),
                 static_cast<unsigned long long>(total.total_failed()),
                 static_cast<unsigned long long>(total.reduced_checks));
    std::fprintf(stderr,
                 "svm-run: %llu registrations, %llu drops; lookup cache "
                 "%llu/%llu (%.1f%% hit rate), %llu comparisons, %llu "
                 "rotations\n",
                 static_cast<unsigned long long>(total.registrations),
                 static_cast<unsigned long long>(total.drops),
                 static_cast<unsigned long long>(total.cache_hits),
                 static_cast<unsigned long long>(total.cache_lookups()),
                 100.0 * total.cache_hit_rate(),
                 static_cast<unsigned long long>(total.splay_comparisons),
                 static_cast<unsigned long long>(total.splay_rotations));
    std::fprintf(stderr,
                 "svm-run: %-24s %10s %12s %12s %9s %10s\n", "metapool",
                 "live", "cache hits", "misses", "hit rate", "rotations");
    for (const auto& [name, row] : by_pool) {
      uint64_t lookups = row.hits + row.misses;
      std::fprintf(
          stderr, "svm-run: %-24s %10llu %12llu %12llu %8.1f%% %10llu\n",
          name.c_str(), static_cast<unsigned long long>(row.live),
          static_cast<unsigned long long>(row.hits),
          static_cast<unsigned long long>(row.misses),
          lookups == 0 ? 0.0 : 100.0 * row.hits / lookups,
          static_cast<unsigned long long>(row.rotations));
    }
  }
  if (!result.status.ok()) {
    std::fprintf(stderr, "svm-run: %s\n", result.status.ToString().c_str());
    return result.status.code() == sva::StatusCode::kSafetyViolation ? 2 : 1;
  }
  std::printf("%llu\n", static_cast<unsigned long long>(result.value));
  return 0;
}
