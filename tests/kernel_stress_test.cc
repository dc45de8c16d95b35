// Stress and failure-injection tests for the minikernel in the SVA-Safe
// configuration: sustained churn must keep every metapool registration
// balanced (no leaked or stale object ranges, which would surface as
// spurious violations) and must never produce a false-positive check
// failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/smp/percpu.h"

namespace sva::kernel {
namespace {

class StressHarness {
 public:
  StressHarness() : machine_(512ull << 20) {
    KernelConfig config;
    config.mode = KernelMode::kSvaSafe;
    kernel_ = std::make_unique<Kernel>(machine_, config);
    Status s = kernel_->Boot();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  Kernel& k() { return *kernel_; }
  uint64_t user(uint64_t offset = 0) {
    return kUserVirtualBase +
           static_cast<uint64_t>(kernel_->current_pid()) * 0x100000 + offset;
  }
  uint64_t Call(Sys n, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                uint64_t a3 = 0) {
    auto r = kernel_->Syscall(n, a0, a1, a2, a3);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ~uint64_t{0};
  }

  hw::Machine machine_;
  std::unique_ptr<Kernel> kernel_;
};

TEST(KernelStressTest, FileChurnKeepsRegistrationsBalanced) {
  StressHarness h;
  for (int round = 0; round < 200; ++round) {
    std::string path = "/stress/f" + std::to_string(round % 16);
    ASSERT_TRUE(h.k().PokeUserString(h.user(0), path).ok());
    uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
    std::vector<char> data(1000 + round * 7 % 3000, 'x');
    ASSERT_TRUE(h.k().PokeUser(h.user(64), data.data(), data.size()).ok());
    ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(64), data.size()), data.size());
    ASSERT_EQ(h.Call(Sys::kClose, fd), 0u);
    if (round % 4 == 3) {
      ASSERT_EQ(h.Call(Sys::kUnlink, h.user(0)), 0u);
    }
  }
  // No check ever failed: churn produced zero false positives.
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
  EXPECT_TRUE(h.k().pools().violations().empty());
  // Registrations and drops stay coupled: every unlink freed its blocks.
  const auto& stats = h.k().pools().stats();
  EXPECT_GT(stats.registrations, 200u);
  EXPECT_GT(stats.drops, 100u);
}

TEST(KernelStressTest, TaskLifecycleChurn) {
  StressHarness h;
  for (int round = 0; round < 120; ++round) {
    uint64_t child = h.Call(Sys::kFork);
    ASSERT_TRUE(h.k().Yield().ok());
    ASSERT_EQ(h.k().current_pid(), static_cast<int>(child));
    if (round % 2 == 0) {
      h.Call(Sys::kExecve, h.user(0));
    }
    h.Call(Sys::kExit, 0);
    ASSERT_EQ(h.k().current_pid(), 1);
    ASSERT_EQ(h.Call(Sys::kWaitPid, child), child);
  }
  EXPECT_EQ(h.k().stats().forks, 120u);
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
  // Only init remains.
  int alive = 0;
  for (int pid = 1; pid < 200; ++pid) {
    if (h.k().FindTask(pid) != nullptr) {
      ++alive;
    }
  }
  EXPECT_EQ(alive, 1);
}

TEST(KernelStressTest, PipeSocketInterleaving) {
  StressHarness h;
  ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
  uint32_t fds[2];
  ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
  uint64_t sock =
      h.Call(Sys::kSocket, static_cast<uint64_t>(SocketDomain::kDatagram));
  ASSERT_EQ(h.Call(Sys::kBind, sock, 9000), 0u);
  const uint64_t self = (static_cast<uint64_t>(net::kLoopbackIp) << 16) | 9000;
  std::vector<char> payload(777, 'p');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), payload.data(), payload.size()).ok());
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), payload.size()),
              payload.size());
    ASSERT_EQ(h.Call(Sys::kSend, sock, h.user(64), payload.size(), self),
              payload.size());
    ASSERT_EQ(h.Call(Sys::kRead, fds[0], h.user(4096), payload.size()),
              payload.size());
    ASSERT_EQ(h.Call(Sys::kRecv, sock, h.user(4096), payload.size()),
              payload.size());
  }
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

// pipe() + close() must return every pipe resource: the 16 KiB ring, the
// pipe_inode_info object, and the Pipe itself; 5000 cycles would otherwise
// hold 80 MB of rings. The last close retires the pipe through the epoch
// machinery, so each count is read after a grace period.
TEST(KernelStressTest, PipeCloseReleasesRingAndInode) {
  StressHarness h;
  runtime::MetaPool* rings = h.k().pools().FindPool("MPk.kmalloc-16384");
  runtime::MetaPool* inodes = h.k().pools().FindPool("MPc.pipe_inode_info");
  ASSERT_NE(rings, nullptr);
  ASSERT_NE(inodes, nullptr);
  const size_t rings_before = rings->live_objects();
  const size_t inodes_before = inodes->live_objects();
  for (int round = 0; round < 5000; ++round) {
    ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
    uint32_t fds[2];
    ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
    if (round % 2 == 0) {
      ASSERT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), 64), 64u);
    }
    // Alternate which end goes first; a dup'd end keeps the pipe alive.
    uint64_t first = round % 3 == 0 ? fds[1] : fds[0];
    uint64_t second = first == fds[0] ? fds[1] : fds[0];
    uint64_t extra = h.Call(Sys::kDup, first);
    ASSERT_EQ(h.Call(Sys::kClose, first), 0u);
    ASSERT_EQ(h.Call(Sys::kClose, second), 0u);
    smp::EpochDomain::Global().Synchronize();
    ASSERT_EQ(inodes->live_objects(), inodes_before + 1);
    ASSERT_EQ(h.Call(Sys::kClose, extra), 0u);
  }
  smp::EpochDomain::Global().Synchronize();
  EXPECT_EQ(rings->live_objects(), rings_before);
  EXPECT_EQ(inodes->live_objects(), inodes_before);
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

// A close racing a read of the same pipe: the read resolves the fd
// lock-free, so it may still hold the read end's file after both ends are
// released. It then reads the data from the pipe, which is retired only
// past the reader's grace period, or finds the fd already closed (kEBadF);
// never the freed ring. Under TSan this also checks the retire is ordered
// against the ring accesses.
TEST(KernelStressTest, PipeCloseDuringReadGetsDataOrEBadF) {
  constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
  StressHarness h;
  std::vector<char> payload(32, 'r');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), payload.data(), payload.size()).ok());
  h.k().svaos().ConfigureCpus(2);
  int got_data = 0;
  int got_ebadf = 0;
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
    uint32_t fds[2];
    ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
    ASSERT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), payload.size()),
              payload.size());
    std::atomic<bool> go{false};
    uint64_t result = 0;
    std::thread reader([&] {
      smp::ScopedCpu bind(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      result = h.Call(Sys::kRead, fds[0], h.user(4096), payload.size());
    });
    {
      smp::ScopedCpu bind(0);
      go.store(true, std::memory_order_release);
      ASSERT_EQ(h.Call(Sys::kClose, fds[1]), 0u);
      ASSERT_EQ(h.Call(Sys::kClose, fds[0]), 0u);
    }
    reader.join();
    if (result == payload.size()) {
      ++got_data;
    } else {
      ASSERT_EQ(result, kEBadF) << "round " << round;
      ++got_ebadf;
    }
  }
  EXPECT_EQ(got_data + got_ebadf, 300);
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
  EXPECT_TRUE(h.k().pools().violations().empty());
}

// gettimeofday stages its result through a kmalloc'd buffer and open its
// path; from two CPUs at once, each buffer is freed into the magazine of
// the CPU that allocated it or of the other one. Afterwards every kmalloc
// class and every MPk.* metapool is back at its live count from before.
TEST(KernelStressTest, TwoCpuTimeAndOpenLeaveKmallocAtBaseline) {
  constexpr int kCpus = 2;
  constexpr int kRounds = 2000;
  StressHarness h;
  h.k().svaos().ConfigureCpus(kCpus);
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/stress/kmalloc").ok());
  ASSERT_EQ(h.Call(Sys::kClose, h.Call(Sys::kOpen, h.user(0), 1)), 0u);
  // Fault the timeval buffers in before the threads start.
  std::vector<char> zeros(64, 0);
  ASSERT_TRUE(h.k().PokeUser(h.user(4096), zeros.data(), zeros.size()).ok());

  const auto& classes = h.k().allocators().kmalloc().caches();
  std::vector<uint64_t> class_live;
  std::vector<size_t> pool_live;
  for (const auto& cls : classes) {
    class_live.push_back(cls->live_objects());
    runtime::MetaPool* pool = h.k().pools().FindPool("MPk." + cls->name());
    ASSERT_NE(pool, nullptr);
    pool_live.push_back(pool->live_objects());
  }
  const uint64_t tv = h.user(4096);
  const uint64_t path = h.user(0);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    threads.emplace_back([&, cpu] {
      smp::ScopedCpu bind(static_cast<unsigned>(cpu));
      for (int round = 0; round < kRounds; ++round) {
        auto time = h.k().Syscall(Sys::kGetTimeOfDay, tv + cpu * 16);
        auto fd = h.k().Syscall(Sys::kOpen, path, 0);
        bool ok = time.ok() && *time == 0 && fd.ok() && *fd < 16;
        if (fd.ok()) {
          auto closed = h.k().Syscall(Sys::kClose, *fd);
          ok = ok && closed.ok() && *closed == 0;
        }
        if (!ok) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (size_t i = 0; i < classes.size(); ++i) {
    const std::string& name = classes[i]->name();
    EXPECT_EQ(classes[i]->live_objects(), class_live[i]) << name;
    EXPECT_EQ(h.k().pools().FindPool("MPk." + name)->live_objects(),
              pool_live[i])
        << name;
  }
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

TEST(KernelStressTest, SignalStorm) {
  StressHarness h;
  for (int sig = 0; sig < kMaxSignals; ++sig) {
    h.Call(Sys::kSigaction, static_cast<uint64_t>(sig), 1);
  }
  for (int round = 0; round < 100; ++round) {
    h.Call(Sys::kKill, 1, static_cast<uint64_t>(round % kMaxSignals));
  }
  Task* init = h.k().FindTask(1);
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->signals_delivered, 100u);
  EXPECT_EQ(init->pending_signals, 0u);
}

// Concurrent vfs I/O and task churn from distinct host threads: file
// syscalls take their inode's lock while fork/kill/brk/sigaction take
// tasks_lock_ -> files_lock_, and neither path serialises the other. Registered with the `concurrency` ctest label so
// the TSan configuration runs it; any missing synchronisation between the
// two leaf-lock paths (fd-table copy vs. fd use, disposition copy vs.
// sigaction, stats counters) surfaces as a reported race.
//
// The concurrent phase deliberately never writes user memory: SysFork's
// eager page copy reads the parent's touched pages, which is only
// race-free against workers that also just read them (kWrite copies
// *from* user buffers poked before the threads start). Reads into user
// memory happen in the sequential teardown.
TEST(KernelStressTest, ConcurrentVfsAndForkOffTheBkl) {
  StressHarness h;
  constexpr int kVfsThreads = 3;
  constexpr int kRounds = 200;
  constexpr int kForks = 16;
  constexpr uint64_t kPayload = 512;

  // One file and one pre-poked payload buffer per vfs worker.
  uint64_t fds[kVfsThreads];
  std::vector<char> payload(kPayload, 'c');
  for (int t = 0; t < kVfsThreads; ++t) {
    std::string path = "/stress/conc" + std::to_string(t);
    ASSERT_TRUE(h.k().PokeUserString(h.user(0), path).ok());
    fds[t] = h.Call(Sys::kOpen, h.user(0), 1);
    ASSERT_LT(fds[t], 16u);
    ASSERT_TRUE(h.k()
                    .PokeUser(h.user(8192 + t * 2048), payload.data(),
                              payload.size())
                    .ok());
  }

  // One virtual CPU per worker, each thread bound to its own: syscall
  // entry state (interrupt-context slab, SVA-OS stats) is per-CPU, so
  // concurrent entries must come from distinct CPUs — exactly as on real
  // hardware, and exactly what bench/kernel_harness.h's RunWorkers does.
  h.k().svaos().ConfigureCpus(kVfsThreads + 1);
  std::vector<uint64_t> children;  // Written only by the fork thread.
  std::vector<std::thread> workers;
  for (int t = 0; t < kVfsThreads; ++t) {
    workers.emplace_back([&h, &fds, t] {
      smp::ScopedCpu bind(static_cast<unsigned>(t));
      for (int round = 0; round < kRounds; ++round) {
        h.Call(Sys::kWrite, fds[t], h.user(8192 + t * 2048), kPayload);
        h.Call(Sys::kLseek, fds[t], 0, 0);
      }
    });
  }
  workers.emplace_back([&h, &children] {
    smp::ScopedCpu bind(kVfsThreads);
    for (int i = 0; i < kForks; ++i) {
      children.push_back(h.Call(Sys::kFork));
      h.Call(Sys::kSigaction, 9, 77);
      h.Call(Sys::kKill, 1, 9);
      h.Call(Sys::kBrk, 4096);
      for (int j = 0; j < 25; ++j) {
        h.Call(Sys::kGetPid);
      }
    }
  });
  for (std::thread& w : workers) {
    w.join();
  }

  // Sequential teardown: run and reap every child, then read the files
  // back to prove the concurrent writes landed intact.
  for (uint64_t child : children) {
    while (h.k().current_pid() != static_cast<int>(child)) {
      ASSERT_TRUE(h.k().Yield().ok());
    }
    h.Call(Sys::kExit, 0);
    ASSERT_EQ(h.Call(Sys::kWaitPid, child), child);
  }
  for (int t = 0; t < kVfsThreads; ++t) {
    ASSERT_EQ(h.Call(Sys::kLseek, fds[t], 0, 0), 0u);
    ASSERT_EQ(h.Call(Sys::kRead, fds[t], h.user(32768), kPayload), kPayload);
    char back[kPayload] = {};
    ASSERT_TRUE(h.k().PeekUser(h.user(32768), back, kPayload).ok());
    EXPECT_EQ(back[0], 'c');
    EXPECT_EQ(back[kPayload - 1], 'c');
    ASSERT_EQ(h.Call(Sys::kClose, fds[t]), 0u);
  }
  EXPECT_EQ(h.k().stats().forks, static_cast<uint64_t>(kForks));
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
  EXPECT_TRUE(h.k().pools().violations().empty());
}

// The live registrations of the pools a file or pipe lifecycle touches, and
// the epoch counters: after a race test quiesces (every fd closed, every
// name unlinked, one grace period run), each must be back where it began.
struct LifecycleBaseline {
  explicit LifecycleBaseline(Kernel& k) : kernel(k) {
    for (const char* name : kPools) {
      runtime::MetaPool* pool = k.pools().FindPool(name);
      EXPECT_NE(pool, nullptr) << name;
      live.push_back(pool == nullptr ? 0 : pool->live_objects());
    }
  }
  void ExpectRestored() {
    smp::EpochDomain& epoch = smp::EpochDomain::Global();
    epoch.Synchronize();
    for (size_t i = 0; i < live.size(); ++i) {
      runtime::MetaPool* pool = kernel.pools().FindPool(kPools[i]);
      ASSERT_NE(pool, nullptr);
      EXPECT_EQ(pool->live_objects(), live[i]) << kPools[i];
    }
    EXPECT_EQ(epoch.retired(), epoch.reclaimed());
    EXPECT_EQ(kernel.pools().stats().total_failed(), 0u);
    EXPECT_TRUE(kernel.pools().violations().empty());
  }
  static constexpr const char* kPools[] = {
      "MPc.inode", "MPc.filp", "MPc.pipe_inode_info", "MPk.kmalloc-4096",
      "MPk.kmalloc-16384"};
  Kernel& kernel;
  std::vector<size_t> live;
};

// Unlink racing read and write on the same file: each open/write/read
// round runs against the inode its fd names, linked or already unlinked,
// and always reads back what it wrote. The unlinker drops the name while
// the fd holds the inode, so the blocks die with the last close.
TEST(KernelStressTest, UnlinkRacingReadAndWriteKeepsTheOpenInode) {
  constexpr uint64_t kENoEnt = static_cast<uint64_t>(-2);
  constexpr int kRounds = 1500;
  constexpr uint64_t kChunk = 512;
  StressHarness h;
  LifecycleBaseline baseline(h.k());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/stress/unlinked").ok());
  h.k().svaos().ConfigureCpus(2);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread unlinker([&] {
    smp::ScopedCpu bind(1);
    int removed = 0;
    while (!done.load(std::memory_order_acquire) || removed == 0) {
      auto r = h.k().Syscall(Sys::kUnlink, h.user(0));
      if (!r.ok() || (*r != 0 && *r != kENoEnt)) {
        failures.fetch_add(1);
      }
      removed += r.ok() && *r == 0;
    }
  });
  {
    smp::ScopedCpu bind(0);
    std::vector<char> data(kChunk);
    std::vector<char> back(kChunk);
    for (int round = 0; round < kRounds; ++round) {
      std::fill(data.begin(), data.end(), static_cast<char>('a' + round % 26));
      ASSERT_TRUE(h.k().PokeUser(h.user(4096), data.data(), kChunk).ok());
      uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
      ASSERT_LT(fd, 64u);
      // Twice: the second write lands past the first, on a live or an
      // unlinked inode alike.
      ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(4096), kChunk), kChunk);
      ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(4096), kChunk), kChunk);
      ASSERT_EQ(h.Call(Sys::kLseek, fd, kChunk, 0), kChunk);
      ASSERT_EQ(h.Call(Sys::kRead, fd, h.user(8192), kChunk), kChunk);
      ASSERT_TRUE(h.k().PeekUser(h.user(8192), back.data(), kChunk).ok());
      ASSERT_EQ(back, data) << "round " << round;
      ASSERT_EQ(h.Call(Sys::kClose, fd), 0u);
    }
  }
  done.store(true, std::memory_order_release);
  unlinker.join();
  EXPECT_EQ(failures.load(), 0);
  auto last = h.k().Syscall(Sys::kUnlink, h.user(0));
  ASSERT_TRUE(last.ok());
  baseline.ExpectRestored();
}

// The last close of a pipe's read end racing a read through a dup'd fd:
// the reader gets the data (it resolved the fd before the close, and the
// pipe is retired only past its grace period) or kEBadF (the slot was
// already clear), never freed memory; and every pipe is reclaimed.
TEST(KernelStressTest, LastPipeCloseRacingDupReadReclaimsThePipe) {
  constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
  constexpr int kRounds = 400;
  StressHarness h;
  LifecycleBaseline baseline(h.k());
  std::vector<char> payload(48, 'd');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), payload.data(), payload.size()).ok());
  h.k().svaos().ConfigureCpus(2);
  int got_data = 0;
  int got_ebadf = 0;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
    uint32_t fds[2];
    ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
    ASSERT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), payload.size()),
              payload.size());
    uint64_t dup = h.Call(Sys::kDup, fds[0]);
    ASSERT_EQ(h.Call(Sys::kClose, fds[0]), 0u);
    std::atomic<bool> ready{false};
    std::atomic<bool> go{false};
    uint64_t result = 0;
    std::thread reader([&] {
      smp::ScopedCpu bind(1);
      ready.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      result = h.Call(Sys::kRead, dup, h.user(4096), payload.size());
    });
    {
      smp::ScopedCpu bind(0);
      while (!ready.load(std::memory_order_acquire)) {
      }
      go.store(true, std::memory_order_release);
      ASSERT_EQ(h.Call(Sys::kClose, fds[1]), 0u);
      ASSERT_EQ(h.Call(Sys::kClose, dup), 0u);
    }
    reader.join();
    if (result == payload.size()) {
      ++got_data;
    } else {
      ASSERT_EQ(result, kEBadF) << "round " << round;
      ++got_ebadf;
    }
  }
  EXPECT_EQ(got_data + got_ebadf, kRounds);
  baseline.ExpectRestored();
}

TEST(KernelStressTest, FdExhaustionIsGraceful) {
  StressHarness h;
  const uint64_t max_fds = h.k().config().max_fds;
  const uint64_t limit = h.k().config().max_fds_limit;
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/stress/fds").ok());
  std::vector<uint64_t> fds;
  // Fill the table. The embedded array holds max_fds entries; past that the
  // table grows on demand (the files_struct expansion) until max_fds_limit,
  // where -EMFILE finally appears.
  while (true) {
    auto r = h.k().Syscall(Sys::kOpen, h.user(0), 1);
    ASSERT_TRUE(r.ok());
    if (*r > (uint64_t{1} << 60)) {
      break;  // -EMFILE.
    }
    fds.push_back(*r);
    ASSERT_LE(fds.size(), limit);
  }
  EXPECT_GT(fds.size(), max_fds);  // Growth actually happened.
  EXPECT_EQ(fds.size(), limit);
  // Everything still works after closing.
  for (uint64_t fd : fds) {
    ASSERT_EQ(h.Call(Sys::kClose, fd), 0u);
  }
  EXPECT_LT(h.Call(Sys::kOpen, h.user(0), 1), max_fds);
}

TEST(KernelStressTest, ViolationDoesNotCorruptKernel) {
  StressHarness h;
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/stress/v").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  uint64_t user_size = h.k().config().user_pages_per_task * hw::kPageSize;
  // Trigger a violation...
  auto bad = h.k().Syscall(Sys::kWrite, fd, h.user(user_size - 4), 64);
  EXPECT_EQ(bad.status().code(), StatusCode::kSafetyViolation);
  // ...then confirm the kernel still functions for legal work.
  const char ok[] = "still alive";
  ASSERT_TRUE(h.k().PokeUser(h.user(64), ok, sizeof(ok)).ok());
  EXPECT_EQ(h.Call(Sys::kWrite, fd, h.user(64), sizeof(ok)), sizeof(ok));
  EXPECT_EQ(h.Call(Sys::kLseek, fd, 0, 0), 0u);
  EXPECT_EQ(h.Call(Sys::kRead, fd, h.user(512), sizeof(ok)), sizeof(ok));
  char back[sizeof(ok)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(512), back, sizeof(ok)).ok());
  EXPECT_STREQ(back, ok);
}

}  // namespace
}  // namespace sva::kernel
