// SMP scaling microbenchmark: how the sharded metapool runtime behaves when
// run-time checks arrive from many virtual CPUs at once.
//
// Four phases:
//   1. Check throughput on one SHARED MetaPoolRuntime at 1/2/4/8 worker
//      threads (checks/sec, ns/check, measured speedup, and the measured
//      lock-free fraction — the share of lookups absorbed by the per-thread
//      cache without touching a stripe lock).
//   2. The same with a register/drop mutation mix, exercising the stripe
//      locks and generation invalidation under contention.
//   3. The minikernel syscall driver at 1/2/4/8 workers running a mixed
//      tasks+vfs workload — since the big-kernel-lock split (PRs 3-5) this
//      phase scales with workers too: syscalls dispatch onto per-subsystem
//      leaf locks (docs/CONCURRENCY.md), and the `sva_*_lock_wait_ns`
//      histograms attribute any remaining serialization.
//   4. A read-mostly syscall mix (stat / getpid / lseek-SEEK_CUR): every
//      call resolves fds and paths through the epoch-protected structures
//      of docs/CONCURRENCY.md §5 and takes no kernel lock at any rank, so
//      this phase is the scaling headline (tools/check-bench-regress gates
//      it at >= 2.5x for 4 workers on hosts with >= 4 hardware threads).
//   5. Detection parity: the Section 7.2 exploit suite run single-threaded
//      and as 8 concurrent worker replicas must catch exactly the same
//      exploits (concurrency must never change what the checks detect).
//
// Flags: --cpus N caps the worker counts swept (default 8); --quick shrinks
// iteration counts to CI size; --json PATH emits machine-readable records
// (tools/check-bench-regress gates the kernel and read-mostly speedups).
//
// Note on measured speedup: the wall-clock numbers depend on how many
// hardware threads the host actually has. On a host with fewer hardware
// threads than workers the configurations timeshare the CPUs and measured
// speedup is capped by the hardware; only a host with enough threads can
// show scaling.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "bench/kernel_harness.h"
#include "src/exploits/exploits.h"
#include "src/runtime/metapool_runtime.h"
#include "src/smp/percpu.h"
#include "src/smp/sync.h"

namespace sva::bench {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};
constexpr uint64_t kObjectsPerThread = 64;
constexpr uint64_t kObjectSize = 256;

// --cpus cap (default: the full sweep) and --quick sizing, set in main.
unsigned g_max_workers = 8;
uint64_t g_checks_per_thread = 400000;
uint64_t g_calls_per_worker = 20000;

std::vector<unsigned> ThreadCounts() {
  std::vector<unsigned> counts;
  for (unsigned threads : kThreadCounts) {
    if (threads <= g_max_workers) {
      counts.push_back(threads);
    }
  }
  if (counts.empty()) {
    counts.push_back(1);
  }
  return counts;
}

// Per-thread address region: disjoint windows so worker working sets land on
// different stripes, the way per-CPU slabs do in a real kernel.
uint64_t ObjectBase(unsigned thread, uint64_t index) {
  return 0x100000000ull + (static_cast<uint64_t>(thread) << 24) +
         index * 0x1000;
}

struct ScalingSample {
  unsigned threads = 0;
  double seconds = 0;
  uint64_t checks = 0;
  double lock_free_fraction = 0;
};

// Runs `threads` workers against one shared runtime; each worker issues
// lscheck/boundscheck pairs over its own pre-registered objects, plus (when
// `mutate`) a register/drop pair every 64 iterations.
ScalingSample RunScaling(unsigned threads, bool mutate) {
  runtime::MetaPoolRuntime rt;
  runtime::MetaPool* pool = rt.CreatePool("smp_bench", true, kObjectSize,
                                          /*complete=*/true);
  for (unsigned t = 0; t < threads; ++t) {
    for (uint64_t i = 0; i < kObjectsPerThread; ++i) {
      Status s = rt.RegisterObject(*pool, ObjectBase(t, i), kObjectSize);
      assert(s.ok());
      (void)s;
    }
  }
  rt.ResetStats();
  pool->ResetStats();

  std::atomic<uint64_t> failures{0};
  auto worker = [&](unsigned t) {
    smp::ScopedCpu bind(t);
    uint64_t scratch_base = ObjectBase(t, kObjectsPerThread + 8);
    for (uint64_t i = 0; i < g_checks_per_thread; ++i) {
      // Copy-loop-shaped stream: kObjectSize consecutive checks against one
      // object before moving to the next, the access skew the per-thread
      // cache is built for (SAFECode's observation about kernel checks).
      uint64_t base = ObjectBase(t, (i / kObjectSize) % kObjectsPerThread);
      if (!rt.LoadStoreCheck(*pool, base + (i % kObjectSize)).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      if (!rt.BoundsCheck(*pool, base, base + kObjectSize - 1).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      if (mutate && (i % 64) == 0) {
        (void)rt.RegisterObject(*pool, scratch_base, kObjectSize);
        (void)rt.DropObject(*pool, scratch_base);
      }
    }
  };

  double us = TimeOnceUs([&] {
    std::vector<std::thread> pool_workers;
    pool_workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool_workers.emplace_back(worker, t);
    }
    for (std::thread& w : pool_workers) {
      w.join();
    }
  });

  const runtime::CheckStats& stats = rt.stats();
  ScalingSample sample;
  sample.threads = threads;
  sample.seconds = us / 1e6;
  sample.checks = stats.total_performed();
  uint64_t lookups = stats.cache_hits + stats.cache_misses;
  sample.lock_free_fraction =
      lookups == 0 ? 0 : static_cast<double>(stats.cache_hits) / lookups;
  if (failures.load() != 0) {
    std::fprintf(stderr, "smp_scaling: %llu unexpected check failures\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  return sample;
}

void PrintScalingTable(const char* title, bool mutate) {
  std::printf("%s\n\n", title);
  std::vector<ScalingSample> samples;
  for (unsigned threads : ThreadCounts()) {
    samples.push_back(RunScaling(threads, mutate));
  }
  double base_rate = samples[0].checks / samples[0].seconds;
  Table table({"Threads", "Checks/sec", "ns/check", "Speedup", "Lock-free"});
  for (const ScalingSample& s : samples) {
    double rate = s.checks / s.seconds;
    double per_thread_ns =
        s.seconds * 1e9 * s.threads / static_cast<double>(s.checks);
    table.AddRow({std::to_string(s.threads), Fmt("%.2fM", rate / 1e6),
                  Fmt("%.1f", per_thread_ns), Fmt("%.2fx", rate / base_rate),
                  Fmt("%.1f%%", 100.0 * s.lock_free_fraction)});
    JsonReport::Get().Add(std::string(title) + " checks/sec", rate,
                          "checks/s", "", s.threads);
  }
  table.Print();
  std::printf("\n");
}

// Timed rounds per syscall phase. One round runs every swept worker count
// once, in sweep order, on the same booted kernel; each count reports its
// fastest round. A round is a few milliseconds per count, so on a shared
// host one descheduled worker can stretch a single sample by 2x or more,
// and the host threads actually available come and go over seconds.
// Interleaving the counts exposes them to the same host conditions, rounds
// continue until the phase has spanned kMinPhaseSeconds, and the fastest
// round is the rate the code sustains when every worker runs.
constexpr unsigned kMinSyscallRounds = 7;
constexpr double kMinPhaseSeconds = 1.5;

// Runs `worker(t)` on `threads` workers bound to virtual CPUs 0..threads-1
// and returns the wall time in us from the moment every worker is running:
// the workers spin at a start line first, so thread creation and waking
// idle host CPUs stay off the clock.
template <typename Worker>
double TimeWorkersUs(BootedKernel& booted, unsigned threads,
                     const Worker& worker) {
  booted.k().svaos().ConfigureCpus(threads);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      smp::ScopedCpu bind(t);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        smp::CpuRelax();
      }
      worker(t);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    smp::CpuRelax();
  }
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) {
    w.join();
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Runs `worker(t)` on `threads` workers of `booted` for each swept count,
// round after round (see kMinSyscallRounds), and returns the fastest wall
// time per count in us.
template <typename Worker>
std::vector<double> FastestRoundsUs(BootedKernel& booted,
                                    const std::vector<unsigned>& counts,
                                    const Worker& worker) {
  std::vector<double> best_us(counts.size(), 0);
  const auto start = std::chrono::steady_clock::now();
  auto spanned = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() >= kMinPhaseSeconds;
  };
  for (unsigned round = 0; round < kMinSyscallRounds || !spanned();
       ++round) {
    for (size_t i = 0; i < counts.size(); ++i) {
      double us = TimeWorkersUs(booted, counts[i], worker);
      if (round == 0 || us < best_us[i]) {
        best_us[i] = us;
      }
    }
  }
  return best_us;
}

// Prints one Workers/Syscalls/Speedup table and the JSON records for a
// syscall phase that issues `calls_per_worker` calls on each worker.
void PrintSyscallTable(const std::vector<unsigned>& counts,
                       const std::vector<double>& best_us,
                       double calls_per_worker, const char* metric) {
  Table table({"Workers", "Syscalls/sec", "us/syscall", "Speedup"});
  double base_rate = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    double us = best_us[i];
    double total = calls_per_worker * counts[i];
    double rate = total / us * 1e6;
    if (base_rate == 0) {
      base_rate = rate;
    }
    table.AddRow({std::to_string(counts[i]), Fmt("%.2fM", total / us),
                  Fmt("%.3f", us / total), Fmt("%.2fx", rate / base_rate)});
    JsonReport::Get().Add(metric, rate, "calls/s", "sva-safe", counts[i]);
  }
  table.Print();
  std::printf("\n");
}

void KernelSyscallPhase() {
  std::printf(
      "Minikernel syscall driver (post-BKL-split: tasks+vfs mixed workload "
      "on per-subsystem leaf locks)\n\n");
  const std::vector<unsigned> counts = ThreadCounts();
  BootedKernel booted(kernel::KernelMode::kSvaSafe);
  // One regular file per worker, opened up front from the driver thread:
  // the workers all run as pid 1, so the fds land in one shared fd table.
  std::vector<uint64_t> fds;
  for (unsigned t = 0; t < counts.back(); ++t) {
    fds.push_back(booted.OpenFile("/bench/worker" + std::to_string(t)));
    booted.Call(kernel::Sys::kWrite, fds.back(), booted.user(4096), 1024);
  }
  const uint64_t calls_per_worker = g_calls_per_worker;
  std::vector<double> best_us =
      FastestRoundsUs(booted, counts, [&](unsigned t) {
        // The mix: mostly tasks-route calls (getpid/brk — the fork/exit
        // family's lock path without the allocation noise), with a vfs
        // read+seek every 8th iteration so both split-off subsystems are
        // on the clock. 4 syscalls per iteration amortized over 8
        // iterations: 2*8 + 2 = 18 calls per 8 iterations.
        uint64_t ubuf = booted.user(8192 + t * 512);
        for (uint64_t i = 0; i < calls_per_worker; ++i) {
          booted.Call(kernel::Sys::kGetPid);
          booted.Call(kernel::Sys::kBrk, 0);
          if (i % 8 == 0) {
            booted.Call(kernel::Sys::kLseek, fds[t], 0, 0);
            booted.Call(kernel::Sys::kRead, fds[t], ubuf, 256);
          }
        }
      });
  uint64_t per_worker = 2 * calls_per_worker + 2 * (calls_per_worker / 8);
  PrintSyscallTable(counts, best_us, static_cast<double>(per_worker),
                    "kernel syscalls/sec");
}

void ReadMostlyPhase() {
  std::printf(
      "Read-mostly phase: stat/getpid/fd-lookup mix on epoch-protected "
      "structures\n\n");
  const std::vector<unsigned> counts = ThreadCounts();
  BootedKernel booted(kernel::KernelMode::kSvaSafe);
  // Per-worker file with some data, plus a per-worker copy of its path
  // staged in user memory for kStat. The loop body resolves fds through
  // the epoch-published fd table, paths through the epoch-published
  // directory index, and the stat argument through the userspace bounds
  // check — no kernel-policy lock at any rank (docs/CONCURRENCY.md §5).
  std::vector<uint64_t> fds;
  std::vector<uint64_t> paths;
  for (unsigned t = 0; t < counts.back(); ++t) {
    std::string path = "/bench/ro" + std::to_string(t);
    fds.push_back(booted.OpenFile(path));
    booted.Call(kernel::Sys::kWrite, fds.back(), booted.user(4096), 1024);
    uint64_t path_uaddr = booted.user(16384 + t * 128);
    Status s = booted.k().PokeUserString(path_uaddr, path);
    assert(s.ok());
    (void)s;
    paths.push_back(path_uaddr);
  }
  const uint64_t calls_per_worker = g_calls_per_worker;
  std::vector<double> best_us =
      FastestRoundsUs(booted, counts, [&](unsigned t) {
        for (uint64_t i = 0; i < calls_per_worker; ++i) {
          booted.Call(kernel::Sys::kStat, paths[t]);
          booted.Call(kernel::Sys::kGetPid);
          // lseek(fd, 0, SEEK_CUR): the lock-free fd->offset read.
          booted.Call(kernel::Sys::kLseek, fds[t], 0, 1);
        }
      });
  PrintSyscallTable(counts, best_us, 3.0 * calls_per_worker,
                    "readmostly syscalls/sec");
}

// Runs the five-exploit suite once on the calling thread; returns the caught
// bitmap (bit i = scenario i stopped by the checks).
uint32_t RunExploitSuite() {
  uint32_t caught = 0;
  const auto& scenarios = exploits::AllScenarios();
  for (size_t i = 0; i < scenarios.size(); ++i) {
    auto result = exploits::RunScenario(scenarios[i]);
    if (!result.ok()) {
      std::fprintf(stderr, "smp_scaling: exploit pipeline failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (result->caught) {
      caught |= 1u << i;
    }
  }
  return caught;
}

void DetectionParityPhase() {
  std::printf("Detection parity: exploit suite, 1 thread vs 8 replicas\n\n");
  uint32_t serial = RunExploitSuite();

  constexpr unsigned kReplicas = 8;
  std::vector<uint32_t> parallel(kReplicas, 0);
  std::vector<std::thread> workers;
  workers.reserve(kReplicas);
  for (unsigned t = 0; t < kReplicas; ++t) {
    workers.emplace_back([t, &parallel] {
      smp::ScopedCpu bind(t);
      parallel[t] = RunExploitSuite();
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  bool ok = true;
  for (unsigned t = 0; t < kReplicas; ++t) {
    if (parallel[t] != serial) {
      ok = false;
      std::printf("  replica %u caught bitmap 0x%x != serial 0x%x\n", t,
                  parallel[t], serial);
    }
  }
  std::printf("=> serial caught bitmap 0x%x; %u concurrent replicas %s\n\n",
              serial, kReplicas,
              ok ? "identical (PARITY OK)" : "DIVERGED (FAILURE)");
  if (!ok) {
    std::exit(1);
  }
}

void Run() {
  std::printf("SMP scaling: sharded metapool runtime under concurrent "
              "checks\n");
  std::printf("Host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  PrintScalingTable("Phase 1: shared runtime, check-only workload", false);
  PrintScalingTable("Phase 2: shared runtime, checks + register/drop mix",
                    true);
  KernelSyscallPhase();
  ReadMostlyPhase();
  DetectionParityPhase();
  std::printf(
      "The lock-free column is the measured fraction of lookups served by "
      "the\nper-thread cache with no stripe lock taken; on hosts with fewer "
      "hardware\nthreads than workers, measured speedup is capped by the "
      "hardware.\n");
}

}  // namespace
}  // namespace sva::bench

int main(int argc, char** argv) {
  sva::bench::JsonReport::Get().Init(&argc, argv, "smp_scaling");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cpus") == 0 && i + 1 < argc) {
      unsigned long cpus = std::strtoul(argv[++i], nullptr, 10);
      if (cpus >= 1 && cpus <= 16) {
        sva::bench::g_max_workers = static_cast<unsigned>(cpus);
      }
    }
  }
  if (sva::bench::JsonReport::Get().quick()) {
    // CI sizing: exercise every phase and keep the speedup measurement
    // meaningful without taking minutes on small hosts.
    sva::bench::g_checks_per_thread = 50000;
    sva::bench::g_calls_per_worker = 4000;
  }
  sva::bench::Run();
  return sva::bench::JsonReport::Get().Finish();
}
