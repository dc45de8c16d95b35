// The `syscall` workload: a Table 7-shaped syscall mix on the
// Linux-SVA-Safe kernel from 2 worker threads on 2 virtual CPUs (the
// RunWorkers pattern of bench/kernel_harness.h). Both workers run as pid 1
// with their own files, paths and user buffers. Tracing is off.
//
// light = read-mostly calls (getpid, stat, lseek SEEK_CUR, 256 B read,
// gettimeofday); heavy = mutating calls (open+close, 512 B write,
// sigaction); cgi = a 64 B write+read round trip through the worker's pipe
// — the data path of a CGI request. This workload cannot fork (the kernel
// has one current task, so a task switch cannot run beside another
// worker); http's cgi class covers fork.
//
// The pipe is created once per worker at set-up, not per op: the kernel
// never frees a closed pipe's 16 KiB buffer, so a pipe-create-per-op mix
// exhausts guest memory after a few thousand ops (see README.md).
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "kernel_host.h"
#include "src/smp/percpu.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using sva::kernel::Sys;

constexpr unsigned kWorkers = 2;
// Mix items per worker per --seconds second (fixed; see OpsFor).
constexpr uint64_t kOpsPerWorkerPerSecond = 650000;
// Latency is sampled on every kTimeEvery-th op (by index, so the sample is
// unbiased across classes); a failed op is always logged.
constexpr uint64_t kTimeEvery = 4;
// Traced runs record spans for every kSpanEvery-th op of each worker, and
// compare their sides in blocks of kBlockOps items per worker.
constexpr uint64_t kSpanEvery = 8;
// Traced and untraced runs alike run their phases in blocks of this many
// items per worker; untraced runs time set-ups and boots between them.
constexpr uint64_t kBlockOps = 20000;
constexpr uint64_t kReadFileBytes = 64 * 1024;
constexpr uint64_t kOpenFileBytes = 4096;
constexpr uint64_t kWriteCycle = 16 * 512;  // The write file's size bound.
// One in this many reads and pipe round trips has its bytes compared.
constexpr uint64_t kSampleEvery = 16;

enum Kind : uint8_t {
  kGetPid, kStat, kLseekCur, kRead, kGetTimeOfDay,  // light
  kOpenClose, kWrite, kSigaction,                    // heavy
  kPipeTrip,                                         // cgi
  kNumKinds,
};

OpClass ClassOf(uint8_t kind) {
  return kind <= kGetTimeOfDay ? kLight : kind <= kSigaction ? kHeavy : kCgi;
}

// About 4 light to 1 heavy (cgi included) by count.
std::vector<uint8_t> MakeMix(uint64_t seed, uint64_t n) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& k : out) {
    uint64_t x = rng.Below(100);
    k = x < 80   ? static_cast<uint8_t>(x / 16)
        : x < 94 ? static_cast<uint8_t>(kOpenClose + (x - 80) / 5)
                 : static_cast<uint8_t>(kPipeTrip);
  }
  return out;
}

// Per-worker user-memory window (offsets into pid 1's mapped 64 KiB).
struct WorkerLayout {
  explicit WorkerLayout(unsigned t) : base(0x4000 + t * 0x4000) {}
  uint64_t base;
  uint64_t read_path() const { return base; }
  uint64_t open_path() const { return base + 0x80; }
  uint64_t fds() const { return base + 0x100; }
  uint64_t tv() const { return base + 0x180; }
  uint64_t read_buf() const { return base + 0x200; }
  uint64_t write_src() const { return base + 0x400; }
  uint64_t pipe_src() const { return base + 0x600; }
  uint64_t pipe_dst() const { return base + 0x700; }
};

struct SyscallSpans {
  explicit SyscallSpans(SpanNames& n) {
    for (int c = 0; c < kNumClasses; ++c) {
      op[c] = n.Intern(std::string("op.") + kClassNames[c]);
    }
    const std::pair<Sys, const char*> calls[] = {
        {Sys::kGetPid, "getpid"}, {Sys::kStat, "stat"},
        {Sys::kLseek, "lseek"},   {Sys::kRead, "read"},
        {Sys::kGetTimeOfDay, "gettimeofday"},
        {Sys::kOpen, "open"},     {Sys::kClose, "close"},
        {Sys::kWrite, "write"},   {Sys::kSigaction, "sigaction"},
    };
    for (const auto& [sys, name] : calls) {
      sys_ids[static_cast<size_t>(sys)] =
          n.Intern(std::string("kernel.") + name);
    }
    check = n.Intern("bench.check");
  }
  uint32_t op[kNumClasses] = {};
  std::array<uint32_t, 128> sys_ids{};
  uint32_t check = 0;
};

// One worker's fixtures and expectations. Each worker updates its own on
// every op, so workers sit on separate cache lines: sharing one would make
// the two workers' cores pass it back and forth.
struct alignas(64) Worker {
  WorkerLayout mem{0};
  std::string read_content;
  std::string write_content;
  std::string pipe_content;
  uint64_t read_fd = 0;
  uint64_t write_fd = 0;
  uint64_t pipe_r = 0;
  uint64_t pipe_w = 0;
  uint64_t read_off = 0;   // Expected offset of read_fd.
  uint64_t write_off = 0;  // Next offset the 512 B write goes to.
  uint64_t reads = 0;
  uint64_t pipes = 0;
  uint64_t checks = 0;
  uint64_t bytes = 0;      // Payload bytes moved by read/write/pipe calls.
};

class Rig {
 public:
  explicit Rig(uint64_t seed) {
    bool ok = host_.booted();
    for (unsigned t = 0; ok && t < kWorkers; ++t) {
      Worker& w = workers_[t];
      w.mem = WorkerLayout(t);
      w.read_content = SeededBytes(seed * 7 + t, kReadFileBytes);
      w.write_content = SeededBytes(seed * 7 + 3 + t, 512);
      w.pipe_content = SeededBytes(seed * 7 + 5 + t, 64);
      const std::string tag = std::to_string(t);
      w.read_fd = host_.CreateFile("/sc/r" + tag, w.read_content,
                                   w.mem.read_buf());
      uint64_t open_fd = host_.CreateFile(
          "/sc/o" + tag, SeededBytes(seed + t, kOpenFileBytes),
          w.mem.read_buf());
      w.write_fd = host_.CreateFile("/sc/w" + tag, "", w.mem.read_buf());
      ok = w.read_fd != UINT64_MAX && open_fd != UINT64_MAX &&
           w.write_fd != UINT64_MAX &&
           host_.Call(ok, Sys::kClose, open_fd) == 0;
      sva::kernel::Kernel& k = host_.k();
      ok = ok &&
           k.PokeUserString(host_.user(w.mem.read_path()), "/sc/r" + tag)
               .ok() &&
           k.PokeUserString(host_.user(w.mem.open_path()), "/sc/o" + tag)
               .ok() &&
           k.PokeUser(host_.user(w.mem.write_src()), w.write_content.data(),
                      512).ok() &&
           k.PokeUser(host_.user(w.mem.pipe_src()), w.pipe_content.data(), 64)
               .ok() &&
           host_.Call(ok, Sys::kPipe, host_.user(w.mem.fds())) == 0;
      uint32_t fds[2] = {0, 0};
      ok = ok && k.PeekUser(host_.user(w.mem.fds()), fds, 8).ok();
      w.pipe_r = fds[0];
      w.pipe_w = fds[1];
    }
    ok_ = ok;
  }

  bool ok() const { return ok_; }
  sva::kernel::Kernel& kernel() { return host_.k(); }
  Worker& worker(unsigned t) { return workers_[t]; }

  // Runs one mix item for worker `t`; false if any call or check failed.
  bool RunOp(unsigned t, uint8_t kind, uint64_t op, SpanRecorder* rec,
             const SyscallSpans* ids) {
    Worker& w = workers_[t];
    ScopedSpan op_span(rec, ids ? ids->op[ClassOf(kind)] : 0, op);
    auto call = [&](Sys n, uint64_t a0 = 0, uint64_t a1 = 0,
                    uint64_t a2 = 0) {
      ScopedSpan s(rec, ids ? ids->sys_ids[static_cast<size_t>(n)] : 0, op);
      bool ok = true;
      uint64_t v = host_.Call(ok, n, a0, a1, a2);
      return ok ? v : UINT64_MAX - 1;
    };
    auto u = [&](uint64_t off) { return host_.user(off); };
    ++w.checks;
    switch (kind) {
      case kGetPid:
        return call(Sys::kGetPid) == 1;
      case kStat:
        return call(Sys::kStat, u(w.mem.read_path())) == kReadFileBytes;
      case kLseekCur:
        return call(Sys::kLseek, w.read_fd, 0, 1) == w.read_off;
      case kRead: {
        if (w.read_off + 256 > kReadFileBytes) {
          if (call(Sys::kLseek, w.read_fd, 0, 0) != 0) return false;
          w.read_off = 0;
        }
        if (call(Sys::kRead, w.read_fd, u(w.mem.read_buf()), 256) != 256) {
          return false;
        }
        w.bytes += 256;
        uint64_t at = w.read_off;
        w.read_off += 256;
        if (++w.reads % kSampleEvery == 0) {
          ScopedSpan s(rec, ids ? ids->check : 0, op);
          char buf[256];
          ++w.checks;
          return host_.k().PeekUser(u(w.mem.read_buf()), buf, 256).ok() &&
                 std::memcmp(buf, w.read_content.data() + at, 256) == 0;
        }
        return true;
      }
      case kGetTimeOfDay:
        return call(Sys::kGetTimeOfDay, u(w.mem.tv())) == 0;
      case kOpenClose: {
        uint64_t fd = call(Sys::kOpen, u(w.mem.open_path()), 0);
        return fd < 1024 && call(Sys::kClose, fd) == 0;
      }
      case kWrite: {
        bool ok = call(Sys::kLseek, w.write_fd, w.write_off, 0) ==
                      w.write_off &&
                  call(Sys::kWrite, w.write_fd, u(w.mem.write_src()), 512) ==
                      512;
        w.write_off = (w.write_off + 512) % kWriteCycle;
        w.bytes += 512;
        return ok;
      }
      case kSigaction:
        return call(Sys::kSigaction, 1 + op % 30, op) == 0;
      case kPipeTrip: {
        bool ok =
            call(Sys::kWrite, w.pipe_w, u(w.mem.pipe_src()), 64) == 64 &&
            call(Sys::kRead, w.pipe_r, u(w.mem.pipe_dst()), 64) == 64;
        w.bytes += 128;
        if (ok && ++w.pipes % kSampleEvery == 0) {
          ScopedSpan s(rec, ids ? ids->check : 0, op);
          char buf[64];
          ++w.checks;
          ok = host_.k().PeekUser(u(w.mem.pipe_dst()), buf, 64).ok() &&
               std::memcmp(buf, w.pipe_content.data(), 64) == 0;
        }
        return ok;
      }
    }
    return false;
  }

  // After a phase: each write file holds its worker's 512 B block at every
  // offset written.
  bool CheckWrites() {
    bool ok = true;
    for (unsigned t = 0; t < kWorkers; ++t) {
      Worker& w = workers_[t];
      ok = ok && host_.Call(ok, Sys::kLseek, w.write_fd, 0, 0) == 0;
      for (uint64_t off = 0; ok && off < kWriteCycle; off += 512) {
        char buf[512];
        uint64_t n = host_.Call(ok, Sys::kRead, w.write_fd,
                                host_.user(w.mem.read_buf()), 512);
        ok = ok && (n == 0 || (n == 512 && host_.k()
                                  .PeekUser(host_.user(w.mem.read_buf()),
                                            buf, 512)
                                  .ok() &&
                               std::memcmp(buf, w.write_content.data(),
                                           512) == 0));
      }
    }
    return ok;
  }

 private:
  KernelHost host_;
  Worker workers_[kWorkers];
  bool ok_ = false;
};

struct PhaseResult {
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

// Runs items [begin, end) of mixes[t] on worker t for t < workers, each on
// its own virtual CPU. When given, logs[t] records worker t's items as one
// block, whose reference runs on the worker's thread.
PhaseResult RunPhase(Rig& rig, unsigned workers,
                     const std::vector<uint8_t>* mixes, size_t begin,
                     size_t end, PhaseLog* logs = nullptr,
                     SpanRecorder* recs = nullptr,
                     const SyscallSpans* ids = nullptr) {
  rig.kernel().svaos().ConfigureCpus(kWorkers);
  uint64_t failed[kWorkers] = {};
  uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      sva::smp::ScopedCpu bind(t);
      SpanRecorder* rec = recs ? &recs[t] : nullptr;
      const std::vector<uint8_t>& mix = mixes[t];
      const uint64_t bytes0 = rig.worker(t).bytes;
      uint64_t my_failed = 0;
      if (logs) logs[t].BeginBlock();
      for (size_t i = begin; i < end; ++i) {
        const bool timed = logs != nullptr && i % kTimeEvery == 0;
        uint64_t t0 = timed ? NowNs() : 0;
        bool ok =
            rig.RunOp(t, mix[i], i, i % kSpanEvery == 0 ? rec : nullptr, ids);
        if (timed || (logs && !ok)) {
          logs[t].Add(ClassOf(mix[i]), ok ? NowNs() - t0 : kFailedNs);
        }
        my_failed += ok ? 0 : 1;
      }
      if (logs) logs[t].EndBlock(end - begin, rig.worker(t).bytes - bytes0);
      failed[t] = my_failed;
    });
  }
  for (std::thread& th : threads) th.join();
  PhaseResult out;
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (unsigned t = 0; t < workers; ++t) {
    out.ops += end - begin;
    out.failed += failed[t];
  }
  return out;
}

}  // namespace

void RunSyscall(const Options& opt, Report& report) {
  sva::trace::Tracer::Get().Disable();
  // The traced run replays a quarter of the mix three ways (untraced,
  // traced, 1 worker), keeping its spans in memory.
  const uint64_t n =
      OpsFor(opt, kOpsPerWorkerPerSecond) / (opt.trace ? 4 : 1);
  std::vector<uint8_t> mixes[kWorkers];
  std::vector<uint8_t> warm[kWorkers];
  for (unsigned t = 0; t < kWorkers; ++t) {
    mixes[t] = MakeMix(opt.seed * 2 + t, n);
    warm[t] = MakeMix((opt.seed ^ 0x5eed) * 2 + t, n / 20);
  }

  const size_t blocks = (n + kBlockOps - 1) / kBlockOps;

  // Set-up: boot plus fixtures. The first rig is the one measured.
  Spread spread;
  spread.blocks = blocks;
  spread.setup_s = [&] {
    uint64_t t0 = NowNs();
    auto extra = std::make_unique<Rig>(opt.seed);
    if (!extra->ok()) report.Fail("syscall rig set-up");
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  // load_ms: bringing the kernel image up.
  spread.load_ms = [&] { return BootMs(report); };
  uint64_t t0 = NowNs();
  auto rig = std::make_unique<Rig>(opt.seed);
  spread.setups.push_back(HostScaled(static_cast<double>(NowNs() - t0) / 1e9));
  if (!rig->ok()) {
    report.Fail("syscall rig set-up");
    return;
  }
  RunPhase(*rig, kWorkers, warm, 0, warm[0].size());

  if (!opt.trace) {
    std::vector<PhaseLog> logs;
    for (unsigned t = 0; t < kWorkers; ++t) {
      logs.emplace_back(n / kTimeEvery + 1, blocks);
    }
    PhaseResult p;
    for (size_t b = 0; b < blocks; ++b) {
      PhaseResult block =
          RunPhase(*rig, kWorkers, mixes, b * kBlockOps,
                   std::min(n, (b + 1) * kBlockOps), logs.data());
      p.ops += block.ops;
      p.failed += block.failed;
      spread.After(b);
    }
    if (!rig->CheckWrites()) report.Fail("write-back contents");
    report.attempted = p.ops;
    report.failed = p.failed;
    if (p.failed != 0) report.Fail("syscall ops failed");
    report.Set("setup_s", Median(spread.setups));
    report.Set("load_ms", Median(spread.loads));
    // Each worker's rate, summed.
    double ops_per_s = 0, mb_per_s = 0;
    size_t count[kNumClasses] = {};
    for (const PhaseLog& l : logs) {
      ops_per_s += l.OpsPerS();
      mb_per_s += l.MbPerS();
      for (int c = 0; c < kNumClasses; ++c) count[c] += l.Count(c);
    }
    report.Set("ops_per_s", ops_per_s);
    report.Set("mb_per_s", mb_per_s);
    ReportLatency({&logs[0], &logs[1]}, report);
    std::printf("perfbench: workload=syscall ops=%llu checks=%llu threads=%u "
                "conns=0 light=%zu heavy=%zu cgi=%zu\n",
                (unsigned long long)p.ops,
                (unsigned long long)(rig->worker(0).checks +
                                     rig->worker(1).checks),
                kWorkers, count[kLight], count[kHeavy], count[kCgi]);
    report.Set("rss_mb", PeakRssMb());
    return;
  }

  // Traced run: three sides of the same mix blocks on the same rig,
  // interleaved (see Interleave): 0 = 2 workers untraced, 1 = 2 workers
  // traced, 2 = worker 0 alone, for smp.scaling_2v1.
  SpanNames names;
  SyscallSpans ids(names);
  std::vector<SpanRecorder> recs;
  for (unsigned t = 0; t < kWorkers; ++t) recs.emplace_back(n / kSpanEvery * 8);
  uint64_t ops[3] = {}, failed = 0;
  KernelCounters before = KernelCounters::Take(rig->kernel());
  auto times = Interleave(3, (n + kBlockOps - 1) / kBlockOps,
                          [&](int side, size_t b) {
    PhaseResult p = RunPhase(*rig, side == 2 ? 1 : kWorkers, mixes,
                             b * kBlockOps, std::min(n, (b + 1) * kBlockOps),
                             nullptr, side == 1 ? recs.data() : nullptr, &ids);
    ops[side] += p.ops;
    failed += p.failed;
    return p.wall_s;
  });
  KernelCounters after = KernelCounters::Take(rig->kernel());
  if (!rig->CheckWrites()) report.Fail("write-back contents");

  report.attempted = ops[0] + ops[1] + ops[2];
  report.failed = failed;
  if (report.failed != 0) report.Fail("syscall ops failed");
  TraceSummary sum = Summarize({&recs[0], &recs[1]}, names);
  // Counter deltas cover the ops of all three sides: the same mix items.
  ReportKernelCounters(before, after, static_cast<double>(report.attempted),
                       0, report);
  for (const char* s : {"getpid", "stat", "lseek", "read", "gettimeofday",
                        "open", "close", "write", "sigaction"}) {
    report.Set(std::string("kernel.syscall_us.") + s,
               sum.MeanUs(std::string("kernel.") + s));
  }
  // Per block, 2 workers run twice the items 1 worker does.
  report.Set("smp.scaling_2v1", 2.0 * MedianRatio(times[2], times[0]));
  ReportTraceSummary(sum, times[0], times[1], ops[1], opt, names,
                     {&recs[0], &recs[1]}, report);
  std::printf("perfbench: workload=syscall ops=%llu checks=%llu threads=%u "
              "conns=0\n",
              (unsigned long long)report.attempted,
              (unsigned long long)(rig->worker(0).checks +
                                   rig->worker(1).checks),
              kWorkers);
}

}  // namespace perfbench
