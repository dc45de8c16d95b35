#include <gtest/gtest.h>

#include <cstring>
#include <cctype>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/client.h"
#include "src/smp/epoch.h"
#include "src/smp/lock_order.h"
#include "src/smp/percpu.h"
#include "src/trace/profiler.h"

namespace sva::kernel {
namespace {

constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
constexpr uint64_t kEAgain = static_cast<uint64_t>(-11);

// kSend's destination word: (ip << 16) | port, here the lo device.
uint64_t LoopbackDest(uint16_t port) {
  return (static_cast<uint64_t>(net::kLoopbackIp) << 16) | port;
}

// Boots a kernel in the given mode and exposes syscall shorthand.
class KernelHarness {
 public:
  explicit KernelHarness(KernelMode mode) : machine_(256ull << 20) {
    KernelConfig config;
    config.mode = mode;
    kernel_ = std::make_unique<Kernel>(machine_, config);
    Status s = kernel_->Boot();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  Kernel& k() { return *kernel_; }

  uint64_t user(uint64_t offset = 0) {
    return kUserVirtualBase +
           static_cast<uint64_t>(kernel_->current_pid()) * 0x100000 + offset;
  }

  // Syscall that must succeed at the transport level.
  uint64_t Call(Sys n, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                uint64_t a3 = 0) {
    auto r = kernel_->Syscall(n, a0, a1, a2, a3);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ~uint64_t{0};
  }

  hw::Machine machine_;
  std::unique_ptr<Kernel> kernel_;
};

class KernelModesTest : public ::testing::TestWithParam<KernelMode> {};

TEST_P(KernelModesTest, GetPidAndTimeOfDay) {
  KernelHarness h(GetParam());
  EXPECT_EQ(h.Call(Sys::kGetPid), 1u);
  h.machine_.timer().Tick(12345);
  ASSERT_EQ(h.Call(Sys::kGetTimeOfDay, h.user(0)), 0u);
  uint64_t tv[2] = {0, 0};
  ASSERT_TRUE(h.k().PeekUser(h.user(0), tv, 16).ok());
  EXPECT_EQ(tv[0], 1u);          // 1.2345 seconds.
  EXPECT_EQ(tv[1], 234500u);
}

TEST_P(KernelModesTest, FileWriteReadRoundTrip) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/data").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  ASSERT_LT(fd, 16u);

  const char payload[] = "the quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(h.k().PokeUser(h.user(256), payload, sizeof(payload)).ok());
  EXPECT_EQ(h.Call(Sys::kWrite, fd, h.user(256), sizeof(payload)),
            sizeof(payload));
  EXPECT_EQ(h.Call(Sys::kLseek, fd, 0, 0), 0u);
  EXPECT_EQ(h.Call(Sys::kRead, fd, h.user(512), sizeof(payload)),
            sizeof(payload));
  char back[sizeof(payload)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(512), back, sizeof(payload)).ok());
  EXPECT_STREQ(back, payload);
  EXPECT_EQ(h.Call(Sys::kClose, fd), 0u);
}

TEST_P(KernelModesTest, LargeFileSpansBlocks) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/big").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  std::vector<char> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(h.k().PokeUser(h.user(64), data.data(), data.size()).ok());
  EXPECT_EQ(h.Call(Sys::kWrite, fd, h.user(64), data.size()), data.size());
  EXPECT_EQ(h.Call(Sys::kLseek, fd, 4000, 0), 4000u);
  EXPECT_EQ(h.Call(Sys::kRead, fd, h.user(64), 3000), 3000u);
  std::vector<char> back(3000);
  ASSERT_TRUE(h.k().PeekUser(h.user(64), back.data(), back.size()).ok());
  EXPECT_EQ(back[0], data[4000]);
  EXPECT_EQ(back[2999], data[6999]);
}

TEST_P(KernelModesTest, DevNullSemantics) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/dev/null").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 0);
  ASSERT_LT(fd, 16u);
  EXPECT_EQ(h.Call(Sys::kWrite, fd, h.user(64), 100), 100u);
  EXPECT_EQ(h.Call(Sys::kRead, fd, h.user(64), 100), 0u);  // EOF.
  EXPECT_EQ(h.Call(Sys::kClose, fd), 0u);
}

TEST_P(KernelModesTest, PipeRoundTrip) {
  KernelHarness h(GetParam());
  ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
  uint32_t fds[2];
  ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
  const char msg[] = "pipe payload";
  ASSERT_TRUE(h.k().PokeUser(h.user(64), msg, sizeof(msg)).ok());
  EXPECT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), sizeof(msg)),
            sizeof(msg));
  EXPECT_EQ(h.Call(Sys::kRead, fds[0], h.user(128), sizeof(msg)),
            sizeof(msg));
  char back[sizeof(msg)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(128), back, sizeof(msg)).ok());
  EXPECT_STREQ(back, msg);
  // Wrong ends fail.
  auto bad_read = h.k().Syscall(Sys::kRead, fds[1], h.user(128), 4);
  ASSERT_TRUE(bad_read.ok());
  EXPECT_GT(*bad_read, uint64_t{1} << 60);  // -EINVAL.
}

TEST_P(KernelModesTest, PipeWrapsAroundRing) {
  KernelHarness h(GetParam());
  ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
  uint32_t fds[2];
  ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
  std::vector<char> chunk(6000, 'x');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), chunk.data(), chunk.size()).ok());
  // Fill and drain repeatedly to force wraparound.
  for (int round = 0; round < 6; ++round) {
    ASSERT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), chunk.size()),
              chunk.size());
    ASSERT_EQ(h.Call(Sys::kRead, fds[0], h.user(8192), chunk.size()),
              chunk.size());
  }
}

TEST_P(KernelModesTest, ForkExecWaitLifecycle) {
  KernelHarness h(GetParam());
  uint64_t child = h.Call(Sys::kFork);
  EXPECT_EQ(child, 2u);
  // The child exists and inherited the parent's pid-1 fds (none).
  ASSERT_NE(h.k().FindTask(2), nullptr);
  // Parent stays current (our fork returns to the parent).
  EXPECT_EQ(h.Call(Sys::kGetPid), 1u);
  EXPECT_EQ(h.k().stats().forks, 1u);
  // "Run" the child: switch, exec, exit.
  ASSERT_TRUE(h.k().Yield().ok());
  EXPECT_EQ(h.Call(Sys::kGetPid), 2u);
  EXPECT_EQ(h.Call(Sys::kExecve, h.user(0)), 0u);
  EXPECT_EQ(h.k().stats().execs, 1u);
  EXPECT_EQ(h.Call(Sys::kExit, 0), 0u);
  // Back in the parent; reap the child.
  EXPECT_EQ(h.Call(Sys::kGetPid), 1u);
  EXPECT_EQ(h.Call(Sys::kWaitPid, 2), 2u);
  EXPECT_EQ(h.k().FindTask(2), nullptr);
}

TEST_P(KernelModesTest, ForkCopiesUserMemory) {
  KernelHarness h(GetParam());
  const char secret[] = "parent data";
  ASSERT_TRUE(h.k().PokeUser(h.user(100), secret, sizeof(secret)).ok());
  ASSERT_EQ(h.Call(Sys::kFork), 2u);
  ASSERT_TRUE(h.k().Yield().ok());
  ASSERT_EQ(h.k().current_pid(), 2);
  char back[sizeof(secret)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(100), back, sizeof(secret)).ok());
  EXPECT_STREQ(back, secret);
}

TEST_P(KernelModesTest, SignalDeliveryOnSyscallReturn) {
  KernelHarness h(GetParam());
  EXPECT_EQ(h.Call(Sys::kSigaction, 10, /*handler=*/77), 0u);
  EXPECT_EQ(h.Call(Sys::kKill, 1, 10), 0u);
  // The signal was delivered on the way out of a kernel entry.
  Task* init = h.k().FindTask(1);
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->signals_delivered, 1u);
  EXPECT_EQ(init->pending_signals, 0u);
  // Unhandled signals are dropped (default action).
  EXPECT_EQ(h.Call(Sys::kKill, 1, 11), 0u);
  EXPECT_EQ(h.Call(Sys::kGetPid), 1u);
  EXPECT_EQ(init->signals_delivered, 1u);
}

TEST_P(KernelModesTest, SocketsSendRecv) {
  KernelHarness h(GetParam());
  uint64_t fd =
      h.Call(Sys::kSocket, static_cast<uint64_t>(SocketDomain::kDatagram));
  ASSERT_LT(fd, 16u);
  ASSERT_EQ(h.Call(Sys::kBind, fd, 9000), 0u);
  const char msg[] = "GET / HTTP/1.0";
  ASSERT_TRUE(h.k().PokeUser(h.user(64), msg, sizeof(msg)).ok());
  EXPECT_EQ(h.Call(Sys::kSend, fd, h.user(64), sizeof(msg), LoopbackDest(9000)),
            sizeof(msg));
  EXPECT_EQ(h.Call(Sys::kRecv, fd, h.user(256), sizeof(msg)), sizeof(msg));
  char back[sizeof(msg)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(256), back, sizeof(msg)).ok());
  EXPECT_STREQ(back, msg);
  // An empty queue would block: kEAgain (0 is EOF after a stream's FIN).
  EXPECT_EQ(h.Call(Sys::kRecv, fd, h.user(256), 16), kEAgain);
}

TEST_P(KernelModesTest, UnknownSyscallIsNotFound) {
  KernelHarness h(GetParam());
  const Sys unknown = static_cast<Sys>(999);
  // Kernel::Syscall takes no lock: an unknown number touches no state, so
  // it validates no ranked acquisition at all.
  smp::LockOrderChecker::set_enabled(true);
  uint64_t checked = smp::LockOrderChecker::acquisitions_checked();
  EXPECT_EQ(h.k().Syscall(unknown).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(smp::LockOrderChecker::acquisitions_checked(), checked);
  smp::LockOrderChecker::set_enabled(
      smp::LockOrderChecker::kEnabledByDefault);

  constexpr unsigned kThreads = 4;
  h.k().svaos().ConfigureCpus(kThreads);
  std::vector<int> not_found(kThreads, 0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &not_found, unknown, t] {
      smp::ScopedCpu bind(t);
      for (int i = 0; i < 200; ++i) {
        if (h.k().Syscall(unknown, i).status().code() ==
            StatusCode::kNotFound) {
          ++not_found[t];
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(not_found[t], 200) << "thread " << t;
  }
  EXPECT_EQ(h.Call(Sys::kGetPid), 1u);  // The kernel is unharmed.
}

TEST_P(KernelModesTest, SignalFromAnotherTaskDeliveredOnPipeWrite) {
  KernelHarness h(GetParam());
  ASSERT_EQ(h.Call(Sys::kSigaction, 10, /*handler=*/77), 0u);
  ASSERT_EQ(h.Call(Sys::kPipe, h.user(0)), 0u);
  uint32_t fds[2] = {0, 0};
  ASSERT_TRUE(h.k().PeekUser(h.user(0), fds, 8).ok());
  ASSERT_EQ(h.Call(Sys::kFork), 2u);
  ASSERT_TRUE(h.k().Yield().ok());
  ASSERT_EQ(h.k().current_pid(), 2);
  EXPECT_EQ(h.Call(Sys::kKill, 1, 10), 0u);
  ASSERT_TRUE(h.k().Yield().ok());
  ASSERT_EQ(h.k().current_pid(), 1);
  Task* init = h.k().FindTask(1);
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->signals_delivered, 0u);  // Still pending.
  // Any syscall return delivers, including a pipe write.
  EXPECT_EQ(h.Call(Sys::kWrite, fds[1], h.user(64), 8), 8u);
  EXPECT_EQ(init->signals_delivered, 1u);
  EXPECT_EQ(init->pending_signals, 0u);
}

TEST_P(KernelModesTest, SbrkMovesBreak) {
  KernelHarness h(GetParam());
  uint64_t brk0 = h.Call(Sys::kBrk, 0);
  uint64_t brk1 = h.Call(Sys::kBrk, 4096);
  EXPECT_EQ(brk1, brk0 + 4096);
}

TEST_P(KernelModesTest, UnlinkReleasesStorage) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/gone").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  std::vector<char> data(8192, 'z');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), data.data(), data.size()).ok());
  ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(64), data.size()), data.size());
  ASSERT_EQ(h.Call(Sys::kClose, fd), 0u);
  EXPECT_EQ(h.Call(Sys::kUnlink, h.user(0)), 0u);
  // Reopening without O_CREAT fails.
  auto r = h.k().Syscall(Sys::kOpen, h.user(0), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(*r, uint64_t{1} << 60);  // -ENOENT.
}

// An fd opened before the unlink keeps the file: reads and writes go on
// against the old inode, a create of the same name gets a fresh empty file,
// and the old blocks are freed only when the last fd closes.
TEST_P(KernelModesTest, UnlinkedFileStaysUsableThroughOpenFd) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/open-unlinked").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  ASSERT_TRUE(h.k().PokeUser(h.user(64), "old", 3).ok());
  ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(64), 3), 3u);
  ASSERT_EQ(h.Call(Sys::kUnlink, h.user(0)), 0u);
  EXPECT_GT(h.Call(Sys::kStat, h.user(0)), uint64_t{1} << 60);  // -ENOENT.

  ASSERT_TRUE(h.k().PokeUser(h.user(64), "er", 2).ok());
  ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(64), 2), 2u);
  uint64_t fresh = h.Call(Sys::kOpen, h.user(0), 1);
  EXPECT_EQ(h.Call(Sys::kStat, h.user(0)), 0u);

  ASSERT_EQ(h.Call(Sys::kLseek, fd, 0, 0), 0u);
  ASSERT_EQ(h.Call(Sys::kRead, fd, h.user(128), 16), 5u);
  char got[5];
  ASSERT_TRUE(h.k().PeekUser(h.user(128), got, 5).ok());
  EXPECT_EQ(std::string(got, 5), "older");
  EXPECT_EQ(h.Call(Sys::kLseek, fd, 0, 2), 5u);
  EXPECT_EQ(h.Call(Sys::kRead, fresh, h.user(128), 16), 0u);
  EXPECT_EQ(h.Call(Sys::kClose, fd), 0u);
  EXPECT_EQ(h.Call(Sys::kClose, fresh), 0u);
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

TEST_P(KernelModesTest, DupSharesOffset) {
  KernelHarness h(GetParam());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/dup").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  uint64_t fd2 = h.Call(Sys::kDup, fd);
  EXPECT_NE(fd, fd2);
  const char msg[] = "abcd";
  ASSERT_TRUE(h.k().PokeUser(h.user(64), msg, 4).ok());
  ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(64), 4), 4u);
  // The dup shares the offset: reading from fd2 starts at 4 (EOF).
  EXPECT_EQ(h.Call(Sys::kRead, fd2, h.user(128), 4), 0u);
}

TEST_P(KernelModesTest, BadFdsAreRejected) {
  KernelHarness h(GetParam());
  auto r = h.k().Syscall(Sys::kRead, 12, h.user(0), 4);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(*r, uint64_t{1} << 60);  // -EBADF.
  auto r2 = h.k().Syscall(Sys::kClose, 99, 0, 0);
  // fd out of range: safe mode traps it as a safety violation; other modes
  // return -EBADF.
  if (GetParam() == KernelMode::kSvaSafe) {
    EXPECT_TRUE(!r2.ok() || *r2 > (uint64_t{1} << 60));
  } else {
    ASSERT_TRUE(r2.ok());
    EXPECT_GT(*r2, uint64_t{1} << 60);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, KernelModesTest,
                         ::testing::Values(KernelMode::kNative,
                                           KernelMode::kSvaGcc,
                                           KernelMode::kSvaLlvm,
                                           KernelMode::kSvaSafe),
                         [](const auto& info) {
                           std::string name(KernelModeName(info.param));
                           std::string out;
                           for (char c : name.substr(6)) {  // Strip "Linux-".
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               out.push_back(c);
                             }
                           }
                           return out;
                         });

// The perf_event-style session is strictly self-scoped: the owner may read
// its own samples, a forked child holding the inherited session fd gets
// kEPerm on both read and stop, and the owner's stop still succeeds after
// the child is gone (the exploit suite's PROF-SPY scenario end to end,
// minus the harness).
TEST(KernelProfTest, ProfSyscallsAreSelfOnly) {
  trace::Profiler::Get().ResetForTest();
  constexpr uint64_t kEPerm = static_cast<uint64_t>(-1);
  {
    KernelHarness h(KernelMode::kSvaSafe);
    const uint64_t fd = h.Call(Sys::kProfStart, 0);
    ASSERT_LT(fd, 1024u);
    EXPECT_TRUE(trace::Profiler::Get().running());
    for (int i = 0; i < 50; ++i) {
      h.Call(Sys::kGetPid);  // Activity for the sampler to attribute.
    }
    // Reading our own session succeeds (whether or not a sample already
    // landed — the syscall itself must not error).
    auto n = h.k().Syscall(Sys::kProfRead, fd, h.user(0x8000), 16);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_LE(*n, 16u);

    const uint64_t child = h.Call(Sys::kFork);
    while (h.k().current_pid() != static_cast<int>(child)) {
      ASSERT_TRUE(h.k().Yield().ok());
    }
    EXPECT_EQ(h.Call(Sys::kProfRead, fd, h.user(0x8000), 16), kEPerm);
    EXPECT_EQ(h.Call(Sys::kProfStop, fd), kEPerm);
    h.Call(Sys::kExit, 0);
    ASSERT_EQ(h.Call(Sys::kWaitPid, child), child);

    EXPECT_EQ(h.Call(Sys::kProfStop, fd), 0u);
    EXPECT_FALSE(trace::Profiler::Get().running());
  }
  // Kernel teardown with the session already stopped must not double-stop.
  EXPECT_FALSE(trace::Profiler::Get().running());
}

// An explicit rate in kProfStart reprograms the timer; an impossible rate
// is refused in-band without opening a session.
TEST(KernelProfTest, ProfStartReprogramsTimerAndRejectsBadRates) {
  trace::Profiler::Get().ResetForTest();
  constexpr uint64_t kEInval = static_cast<uint64_t>(-22);
  KernelHarness h(KernelMode::kSvaSafe);
  EXPECT_EQ(h.k().machine().timer().frequency_hz(), 997u);  // Boot default.
  EXPECT_EQ(h.Call(Sys::kProfStart, 2000000), kEInval);  // Past the crystal.
  EXPECT_FALSE(trace::Profiler::Get().running());
  const uint64_t fd = h.Call(Sys::kProfStart, 1999);
  ASSERT_LT(fd, 1024u);
  EXPECT_EQ(h.k().machine().timer().frequency_hz(), 1999u);
  EXPECT_EQ(h.Call(Sys::kProfStop, fd), 0u);
}

TEST(KernelSafetyTest, UserRangeStraddleIsCaught) {
  KernelHarness h(KernelMode::kSvaSafe);
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/f").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  // A write whose user buffer runs off the end of the task's full growable
  // user region: the Section 4.6 userspace-object bounds check rejects it
  // (the registered object covers the whole max span, not just the brk
  // frontier, so lazy growth needs no re-registration).
  uint64_t region = h.k().config().max_user_pages_per_task * hw::kPageSize;
  auto r = h.k().Syscall(Sys::kWrite, fd, h.user(region - 8), 64);
  EXPECT_EQ(r.status().code(), StatusCode::kSafetyViolation);
  EXPECT_FALSE(h.k().pools().violations().empty());
  // Inside the registered object but beyond the brk frontier: the demand
  // pager refuses the fault instead (the page-fault-turned-kill path).
  uint64_t frontier = h.k().config().user_pages_per_task * hw::kPageSize;
  auto r2 = h.k().Syscall(Sys::kWrite, fd, h.user(frontier - 8), 64);
  EXPECT_EQ(r2.status().code(), StatusCode::kSafetyViolation);
}

TEST(KernelSafetyTest, SvaOsStatsTrackKernelEntries) {
  KernelHarness h(KernelMode::kSvaGcc);
  for (int i = 0; i < 10; ++i) {
    h.Call(Sys::kGetPid);
  }
  EXPECT_EQ(h.k().svaos().stats().syscalls_dispatched, 10u);
  EXPECT_EQ(h.k().svaos().stats().icontext_created, 10u);
  // Native mode uses no SVA-OS entries.
  KernelHarness native(KernelMode::kNative);
  for (int i = 0; i < 10; ++i) {
    native.Call(Sys::kGetPid);
  }
  EXPECT_EQ(native.k().svaos().stats().syscalls_dispatched, 0u);
}

TEST(KernelSafetyTest, SafeModeRegistersAllocationsInMetapools) {
  KernelHarness h(KernelMode::kSvaSafe);
  uint64_t before = h.k().pools().stats().registrations;
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/x").ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  std::vector<char> data(4096, 'q');
  ASSERT_TRUE(h.k().PokeUser(h.user(64), data.data(), data.size()).ok());
  h.Call(Sys::kWrite, fd, h.user(64), data.size());
  // open allocated inode+filp objects; write allocated a data block; all
  // were registered.
  EXPECT_GE(h.k().pools().stats().registrations, before + 3);
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

// Every kmalloc class whose slots fit in a page has a slab-indexed
// metapool; the larger classes keep the splay registry.
TEST(KernelSafetyTest, KmallocClassesWithinAPageAreSlabIndexed) {
  KernelHarness h(KernelMode::kSvaSafe);
  for (const auto& cls : h.k().allocators().kmalloc().caches()) {
    runtime::MetaPool* pool = h.k().pools().FindPool("MPk." + cls->name());
    ASSERT_NE(pool, nullptr) << cls->name();
    EXPECT_EQ(pool->slab() != nullptr, cls->object_size() <= hw::kPageSize)
        << cls->name();
  }
}

// kfree keeps its status codes for interior, double, foreign and
// out-of-span frees: a safety violation with checks on, an invalid
// argument without them.
TEST(KernelSafetyTest, KfreeRejectsBadAddresses) {
  for (KernelMode mode : {KernelMode::kSvaSafe, KernelMode::kNative}) {
    KernelHarness h(mode);
    const StatusCode expected = mode == KernelMode::kSvaSafe
                                    ? StatusCode::kSafetyViolation
                                    : StatusCode::kInvalidArgument;
    KernelAllocators& alloc = h.k().allocators();
    runtime::PoolAllocator* cache = alloc.CreateCache("kfree_probe", 64);
    auto foreign = alloc.CacheAlloc(cache);
    auto buf = alloc.Kmalloc(40);
    ASSERT_TRUE(foreign.ok());
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(alloc.KmallocSize(*buf), 64u);
    EXPECT_EQ(alloc.KmallocSize(*buf + 8), 0u);
    EXPECT_EQ(alloc.KmallocSize(*foreign), 0u);
    EXPECT_EQ(alloc.Kfree(*buf + 8).code(), expected);
    EXPECT_EQ(alloc.Kfree(*foreign).code(), expected);
    EXPECT_EQ(alloc.Kfree(h.machine_.memory().size() + 4096).code(), expected);
    ASSERT_TRUE(alloc.Kfree(*buf).ok());
    EXPECT_EQ(alloc.KmallocSize(*buf), 0u);
    EXPECT_EQ(alloc.Kfree(*buf).code(), expected);
    EXPECT_TRUE(alloc.CacheFree(cache, *foreign).ok());
  }
}

// On a slab-indexed kmalloc class pool a drop must name a slot start, and
// a freed object fails its load/store check at once.
TEST(KernelSafetyTest, KmallocSlabPoolRejectsOffGridDropAndFreedAccess) {
  KernelHarness h(KernelMode::kSvaSafe);
  KernelAllocators& alloc = h.k().allocators();
  runtime::MetaPool* pool = alloc.PoolForKmallocClass(64);
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(pool->slab(), nullptr);
  auto buf = alloc.Kmalloc(64);
  ASSERT_TRUE(buf.ok());
  runtime::MetaPoolRuntime& rt = h.k().pools();
  EXPECT_TRUE(rt.LoadStoreCheck(*pool, *buf + 63).ok());
  EXPECT_EQ(rt.DropObject(*pool, *buf + 8).code(),
            StatusCode::kSafetyViolation);
  ASSERT_FALSE(rt.violations().empty());
  EXPECT_EQ(rt.violations().back().kind, runtime::CheckKind::kIllegalFree);
  EXPECT_TRUE(rt.LoadStoreCheck(*pool, *buf + 8).ok());
  ASSERT_TRUE(alloc.Kfree(*buf).ok());
  EXPECT_EQ(rt.LoadStoreCheck(*pool, *buf + 8).code(),
            StatusCode::kSafetyViolation);
  EXPECT_EQ(rt.violations().back().kind, runtime::CheckKind::kLoadStore);
}

// A task whose address space cannot be built gives its task struct back:
// user_pages_per_task above the cap makes CreateAddressSpace fail for pid 1,
// so Boot fails with no task in the map and no live task_struct object.
TEST(KernelSafetyTest, FailedTaskCreationFreesTheTaskStruct) {
  hw::Machine machine(64ull << 20);
  KernelConfig config;
  config.mode = KernelMode::kSvaSafe;
  config.user_pages_per_task = config.max_user_pages_per_task + 1;
  Kernel kernel(machine, config);
  EXPECT_FALSE(kernel.Boot().ok());
  EXPECT_EQ(kernel.FindTask(1), nullptr);
  runtime::MetaPool* tasks = kernel.pools().FindPool("MPc.task_struct");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->live_objects(), 0u);
}

// A fork that fails past CreateTask leaves no half-built child. Here an
// eager fork runs out of frames halfway through copying the parent, and the
// child's task struct, fd references and copied frames all come back.
TEST(KernelSafetyTest, FailedForkUnwindsTheChild) {
  hw::Machine machine(32ull << 20);
  KernelConfig config;
  config.mode = KernelMode::kSvaSafe;
  config.cow_fork = false;
  config.user_pages_per_task = 96;
  Kernel kernel(machine, config);
  ASSERT_TRUE(kernel.Boot().ok());
  const uint64_t base = kUserVirtualBase + 0x100000;  // pid 1's region.
  const std::vector<char> page(hw::kPageSize, 'p');
  auto touch = [&](uint64_t first, uint64_t count) {
    for (uint64_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(
          kernel.PokeUser(base + i * hw::kPageSize, page.data(), page.size())
              .ok());
    }
  };
  touch(0, 64);
  // Park 64 frames on the frame allocator's free list: fork a copy of the
  // 64 resident pages, then let it exit and reap it.
  auto first = kernel.Syscall(Sys::kFork);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(kernel.Yield().ok());
  ASSERT_EQ(kernel.current_pid(), static_cast<int>(*first));
  ASSERT_TRUE(kernel.Syscall(Sys::kExit, 0).ok());
  ASSERT_EQ(kernel.current_pid(), 1);
  ASSERT_TRUE(kernel.Syscall(Sys::kWaitPid, *first).ok());
  // Exhaust the machine with file data, so only the parked frames are left.
  ASSERT_TRUE(kernel.PokeUserString(base, "/tmp/ballast").ok());
  auto ballast = kernel.Syscall(Sys::kOpen, base, 1);
  ASSERT_TRUE(ballast.ok());
  for (int i = 0; i < 1 << 14; ++i) {
    auto wrote = kernel.Syscall(Sys::kWrite, *ballast, base, hw::kPageSize);
    if (!wrote.ok() || *wrote != hw::kPageSize) {
      break;
    }
  }
  // 32 more resident pages leave 32 free frames: too few for a 96-page copy.
  touch(64, 32);
  runtime::MetaPool* tasks = kernel.pools().FindPool("MPc.task_struct");
  runtime::MetaPool* files = kernel.pools().FindPool("MPc.filp");
  ASSERT_NE(tasks, nullptr);
  ASSERT_NE(files, nullptr);
  const size_t tasks_before = tasks->live_objects();
  const size_t files_before = files->live_objects();
  const size_t frames_before = kernel.frames().live_frames();

  auto child = kernel.Syscall(Sys::kFork);
  ASSERT_FALSE(child.ok() && static_cast<int64_t>(*child) > 0)
      << "the fork fit in memory";
  EXPECT_EQ(tasks->live_objects(), tasks_before);
  EXPECT_EQ(kernel.frames().live_frames(), frames_before);
  for (int pid = 2; pid < 8; ++pid) {
    EXPECT_EQ(kernel.FindTask(pid), nullptr) << pid;
  }
  // The child's reference on the ballast file went with it: the parent's
  // close is the last one and frees the file after a grace period.
  ASSERT_TRUE(kernel.Syscall(Sys::kClose, *ballast).ok());
  smp::EpochDomain::Global().Synchronize();
  EXPECT_EQ(files->live_objects(), files_before - 1);
}

// Drives read/write/send/recv over every fd kind (regular file, pipe,
// datagram socket, accepted stream connection), evq_wait, the task
// lifecycle, the scheduler and the host helpers, with the lock-order
// checker force-enabled: any acquisition that violates the documented
// hierarchy (vfs -> tasks -> pipes -> evq -> files)
// aborts the process, so passing IS the assertion. Runs in every build
// type — tier-1 is RelWithDebInfo, where the checker is compiled in but
// default-off.
TEST(KernelLockOrderTest, EveryFdKindRespectsTheHierarchy) {
  smp::LockOrderChecker::set_enabled(true);
  uint64_t before = smp::LockOrderChecker::acquisitions_checked();
  {
    KernelHarness h(KernelMode::kSvaSafe);
    const char payload[] = "lock order";
    ASSERT_TRUE(h.k().PokeUser(h.user(256), payload, sizeof(payload)).ok());

    // Regular file: open/write/lseek/read/dup/unlink/close; send and recv
    // are kEBadF on it.
    ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/tmp/order").ok());
    uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
    EXPECT_EQ(h.Call(Sys::kWrite, fd, h.user(256), sizeof(payload)),
              sizeof(payload));
    EXPECT_EQ(h.Call(Sys::kLseek, fd, 0, 0), 0u);
    EXPECT_EQ(h.Call(Sys::kRead, fd, h.user(512), sizeof(payload)),
              sizeof(payload));
    EXPECT_EQ(h.Call(Sys::kSend, fd, h.user(256), 8), kEBadF);
    EXPECT_EQ(h.Call(Sys::kRecv, fd, h.user(512), 8), kEBadF);
    uint64_t dup_fd = h.Call(Sys::kDup, fd);
    EXPECT_EQ(h.Call(Sys::kClose, dup_fd), 0u);
    EXPECT_EQ(h.Call(Sys::kClose, fd), 0u);
    EXPECT_EQ(h.Call(Sys::kUnlink, h.user(0)), 0u);

    // Task lifecycle: fork/sigaction/kill (self-delivery on return)/brk/
    // exec/exit/wait.
    EXPECT_EQ(h.Call(Sys::kGetPid), 1u);
    h.Call(Sys::kBrk, 4096);
    uint64_t child = h.Call(Sys::kFork);
    EXPECT_EQ(h.Call(Sys::kSigaction, 5, 77), 0u);
    EXPECT_EQ(h.Call(Sys::kKill, 1, 5), 0u);
    EXPECT_EQ(h.Call(Sys::kExecve, h.user(0)), 0u);
    // Exit the child: switch to it via the scheduler (BKL + tasks nest).
    while (h.k().current_pid() != static_cast<int>(child)) {
      ASSERT_TRUE(h.k().Yield().ok());
    }
    EXPECT_EQ(h.Call(Sys::kExit, 0), 0u);
    EXPECT_EQ(h.Call(Sys::kWaitPid, child), child);
    // execve reset the image; put the payload back.
    ASSERT_TRUE(h.k().PokeUser(h.user(256), payload, sizeof(payload)).ok());

    // Pipe: write/read, kEBadF for send/recv, then closing both ends frees
    // the pipe (pipes_lock_ from ReleaseFile).
    ASSERT_EQ(h.Call(Sys::kPipe, h.user(1024)), 0u);
    uint32_t pipe_fds[2] = {0, 0};
    ASSERT_TRUE(h.k().PeekUser(h.user(1024), pipe_fds, 8).ok());
    EXPECT_EQ(h.Call(Sys::kWrite, pipe_fds[1], h.user(256), 8), 8u);
    EXPECT_EQ(h.Call(Sys::kRead, pipe_fds[0], h.user(512), 8), 8u);
    EXPECT_EQ(h.Call(Sys::kSend, pipe_fds[1], h.user(256), 8), kEBadF);
    EXPECT_EQ(h.Call(Sys::kRecv, pipe_fds[0], h.user(512), 8), kEBadF);
    EXPECT_EQ(h.Call(Sys::kClose, pipe_fds[0]), 0u);
    EXPECT_EQ(h.Call(Sys::kClose, pipe_fds[1]), 0u);

    // Datagram socket bound on lo: send to self, then recv and read.
    uint64_t udp = h.Call(Sys::kSocket,
                          static_cast<uint64_t>(SocketDomain::kDatagram));
    EXPECT_EQ(h.Call(Sys::kBind, udp, 4242), 0u);
    EXPECT_EQ(h.Call(Sys::kSend, udp, h.user(256), 8, LoopbackDest(4242)), 8u);
    EXPECT_EQ(h.Call(Sys::kSend, udp, h.user(256), 8, LoopbackDest(4242)), 8u);
    EXPECT_EQ(h.Call(Sys::kRecv, udp, h.user(512), 8), 8u);
    EXPECT_EQ(h.Call(Sys::kRead, udp, h.user(512), 8), 8u);

    // Accepted stream connection, watched by an event queue: write/send/
    // read/recv plus evq_wait.
    uint64_t listener = h.Call(
        Sys::kSocket, static_cast<uint64_t>(SocketDomain::kListener));
    EXPECT_EQ(h.Call(Sys::kBind, listener, 80), 0u);
    net::LoopbackClient client(*h.k().net());
    auto conn = client.OpenStream(80);
    ASSERT_TRUE(conn.ok());
    uint64_t stream = h.Call(Sys::kAccept, listener);
    uint64_t evq = h.Call(Sys::kEvqCreate);
    EXPECT_EQ(h.Call(Sys::kEvqCtl, evq, kEvqCtlAdd, stream, 7), 0u);
    ASSERT_TRUE(client.SendStream(*conn, "pingpong").ok());
    EXPECT_EQ(h.Call(Sys::kEvqWait, evq, h.user(2048), 4, 0), 1u);
    EXPECT_EQ(h.Call(Sys::kRead, stream, h.user(512), 4), 4u);
    EXPECT_EQ(h.Call(Sys::kRecv, stream, h.user(512), 4), 4u);
    EXPECT_EQ(h.Call(Sys::kWrite, stream, h.user(256), 4), 4u);
    EXPECT_EQ(h.Call(Sys::kSend, stream, h.user(256), 4), 4u);
    EXPECT_EQ(client.TakeStream(*conn), "locklock");
    EXPECT_EQ(h.Call(Sys::kClose, evq), 0u);
    EXPECT_EQ(h.Call(Sys::kClose, stream), 0u);
  }
  // The calls above really exercised ranked locks under the checker.
  EXPECT_GT(smp::LockOrderChecker::acquisitions_checked(), before);
  EXPECT_EQ(smp::LockOrderChecker::held_depth(), 0);
  smp::LockOrderChecker::set_enabled(
      smp::LockOrderChecker::kEnabledByDefault);
}

TEST(KernelSafetyTest, ContextSwitchUsesLazyFpSave) {
  KernelHarness h(KernelMode::kSvaGcc);
  ASSERT_EQ(h.Call(Sys::kFork), 2u);
  // No FP activity: switches skip the FP save.
  ASSERT_TRUE(h.k().Yield().ok());
  ASSERT_TRUE(h.k().Yield().ok());
  EXPECT_GE(h.k().svaos().stats().save_fp_skipped, 2u);
  uint64_t saved_before = h.k().svaos().stats().save_fp;
  // Dirty the FP state: the next save is real.
  h.machine_.cpu().WriteFpRegister(0, 1.25);
  ASSERT_TRUE(h.k().Yield().ok());
  EXPECT_EQ(h.k().svaos().stats().save_fp, saved_before + 1);
}

// --- The user-memory page walker ---------------------------------------------

// Lookups (hits + misses) on the calling thread's TLB: one per page a user
// access translates.
uint64_t TlbLookups(Kernel& k) {
  hw::Tlb::Stats s = k.svaos().current_cpu().tlb().stats();
  return s.hits + s.misses;
}

TEST(KernelUserAccessTest, PeekAndPokeTranslateOncePerPage) {
  KernelHarness h(KernelMode::kSvaSafe);
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t at = h.user(hw::kPageSize - 32);  // 32 bytes on each page.
  uint64_t before = TlbLookups(h.k());
  ASSERT_TRUE(h.k().PokeUser(at, data.data(), data.size()).ok());
  EXPECT_EQ(TlbLookups(h.k()) - before, 2u);
  std::vector<uint8_t> back(data.size());
  before = TlbLookups(h.k());
  ASSERT_TRUE(h.k().PeekUser(at, back.data(), back.size()).ok());
  EXPECT_EQ(TlbLookups(h.k()) - before, 2u);
  EXPECT_EQ(back, data);
}

TEST(KernelUserAccessTest, PokeIntoCowSharedPagesBreaksEachPageOnce) {
  KernelHarness h(KernelMode::kSvaSafe);
  const uint64_t offset = hw::kPageSize - 16;
  const char shared[] = "shared over a page boundary";
  ASSERT_TRUE(h.k().PokeUser(h.user(offset), shared, sizeof(shared)).ok());
  ASSERT_EQ(h.Call(Sys::kFork), 2u);
  const uint64_t breaks_before = h.k().vm().stats().cow_faults;
  const char mine[] = "the parent's own new bytes!";
  static_assert(sizeof(mine) == sizeof(shared));
  ASSERT_TRUE(h.k().PokeUser(h.user(offset), mine, sizeof(mine)).ok());
  EXPECT_EQ(h.k().vm().stats().cow_faults - breaks_before, 2u);
  char back[sizeof(mine)] = {};
  ASSERT_TRUE(h.k().PeekUser(h.user(offset), back, sizeof(back)).ok());
  EXPECT_STREQ(back, mine);
  // The child still sees the bytes from before the break.
  ASSERT_TRUE(h.k().Yield().ok());
  ASSERT_EQ(h.k().current_pid(), 2);
  ASSERT_TRUE(h.k().PeekUser(h.user(offset), back, sizeof(back)).ok());
  EXPECT_STREQ(back, shared);
}

TEST(KernelUserAccessTest, PeekAndPokePastTheBrkFrontierFail) {
  KernelHarness h(KernelMode::kSvaSafe);
  const uint64_t frontier =
      h.k().config().user_pages_per_task * hw::kPageSize;
  const char bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Status poke = h.k().PokeUser(h.user(frontier - 4), bytes, sizeof(bytes));
  EXPECT_EQ(poke.code(), StatusCode::kSafetyViolation);
  char back[8];
  Status peek = h.k().PeekUser(h.user(frontier), back, sizeof(back));
  EXPECT_EQ(peek.code(), StatusCode::kSafetyViolation);
}

// Creates `path` holding `size` bytes; the path is staged at user(0).
void CreateFile(KernelHarness& h, const std::string& path, uint64_t size) {
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), path).ok());
  uint64_t fd = h.Call(Sys::kOpen, h.user(0), 1);
  ASSERT_LT(fd, 1024u);
  ASSERT_EQ(h.Call(Sys::kWrite, fd, h.user(2048), size), size);
  ASSERT_EQ(h.Call(Sys::kClose, fd), 0u);
}

TEST(KernelUserAccessTest, StatReadsAPathThatStraddlesAPage) {
  KernelHarness h(KernelMode::kSvaSafe);
  CreateFile(h, "/tmp/straddle", 5);
  const uint64_t at = h.user(hw::kPageSize - 6);  // "/tmp/s" | "traddle\0"
  ASSERT_TRUE(h.k().PokeUserString(at, "/tmp/straddle").ok());
  EXPECT_EQ(h.Call(Sys::kStat, at), 5u);
  EXPECT_TRUE(h.k().pools().violations().empty());
}

TEST(KernelUserAccessTest, StatPathEndsExactlyAtTheUserObjectsEnd) {
  KernelHarness h(KernelMode::kSvaSafe);
  CreateFile(h, "/tmp/edge", 3);
  const uint64_t region =
      static_cast<uint64_t>(h.k().config().max_user_pages_per_task) *
      hw::kPageSize;
  const uint64_t brk = h.Call(Sys::kBrk, 0);
  h.Call(Sys::kBrk, h.user(region) - brk);  // Whole object touchable.
  const std::string path = "/tmp/edge";
  // The NUL is the object's last byte: accepted, nothing past it is read.
  const uint64_t at = h.user(region - path.size() - 1);
  ASSERT_TRUE(h.k().PokeUserString(at, path).ok());
  EXPECT_EQ(h.Call(Sys::kStat, at), 3u);
  EXPECT_TRUE(h.k().pools().violations().empty());
  // Without the NUL the path runs off the object: the Section 4.6 check
  // rejects it.
  const uint64_t tail = h.user(region - 4);
  ASSERT_TRUE(h.k().PokeUser(tail, "/tmp", 4).ok());
  auto r = h.k().Syscall(Sys::kStat, tail);
  EXPECT_EQ(r.status().code(), StatusCode::kSafetyViolation);
  EXPECT_FALSE(h.k().pools().violations().empty());
}

// The address `path` (NUL included) ends at: the last byte of the task's
// user object, after growing the break over the whole object.
uint64_t PathAtTheUserObjectsEnd(KernelHarness& h, const std::string& path) {
  const uint64_t region =
      static_cast<uint64_t>(h.k().config().max_user_pages_per_task) *
      hw::kPageSize;
  const uint64_t brk = h.Call(Sys::kBrk, 0);
  h.Call(Sys::kBrk, h.user(region) - brk);  // Whole object touchable.
  const uint64_t at = h.user(region - path.size() - 1);
  EXPECT_TRUE(h.k().PokeUserString(at, path).ok());
  return at;
}

// A path with no NUL in the object's last four bytes runs off the object.
uint64_t UnterminatedPathAtTheUserObjectsEnd(KernelHarness& h) {
  const uint64_t region =
      static_cast<uint64_t>(h.k().config().max_user_pages_per_task) *
      hw::kPageSize;
  const uint64_t tail = h.user(region - 4);
  EXPECT_TRUE(h.k().PokeUser(tail, "/tmp", 4).ok());
  return tail;
}

TEST(KernelUserAccessTest, OpenPathEndsExactlyAtTheUserObjectsEnd) {
  KernelHarness h(KernelMode::kSvaSafe);
  CreateFile(h, "/tmp/edge", 3);
  const uint64_t at = PathAtTheUserObjectsEnd(h, "/tmp/edge");
  const uint64_t fd = h.Call(Sys::kOpen, at, 0);
  ASSERT_LT(fd, 1024u);
  EXPECT_EQ(h.Call(Sys::kClose, fd), 0u);
  // Creation takes the same path read.
  const uint64_t created = h.Call(Sys::kOpen, at + 5, 1);  // "edge"
  ASSERT_LT(created, 1024u);
  EXPECT_EQ(h.Call(Sys::kClose, created), 0u);
  EXPECT_TRUE(h.k().pools().violations().empty());
  auto r = h.k().Syscall(Sys::kOpen, UnterminatedPathAtTheUserObjectsEnd(h),
                         1);
  EXPECT_EQ(r.status().code(), StatusCode::kSafetyViolation);
  EXPECT_FALSE(h.k().pools().violations().empty());
}

TEST(KernelUserAccessTest, UnlinkPathEndsExactlyAtTheUserObjectsEnd) {
  KernelHarness h(KernelMode::kSvaSafe);
  CreateFile(h, "/tmp/edge", 3);
  const uint64_t at = PathAtTheUserObjectsEnd(h, "/tmp/edge");
  EXPECT_EQ(h.Call(Sys::kUnlink, at), 0u);
  EXPECT_GT(h.Call(Sys::kStat, at), uint64_t{1} << 60);  // -ENOENT.
  EXPECT_TRUE(h.k().pools().violations().empty());
  auto r =
      h.k().Syscall(Sys::kUnlink, UnterminatedPathAtTheUserObjectsEnd(h));
  EXPECT_EQ(r.status().code(), StatusCode::kSafetyViolation);
  EXPECT_FALSE(h.k().pools().violations().empty());
}

TEST(KernelUserAccessTest, StatTruncatesAPathWithNoNulAtTheMaximum) {
  KernelHarness h(KernelMode::kSvaSafe);
  // open also reads at most kMaxPathLength bytes, so it creates the file
  // under the truncated name.
  const std::string name = "/tmp/" + std::string(kMaxPathLength - 5, 'x');
  ASSERT_EQ(name.size(), kMaxPathLength);
  CreateFile(h, name + "tail", 7);
  const uint64_t at = h.user(hw::kPageSize - 20);  // Straddles, too.
  ASSERT_TRUE(h.k().PokeUserString(at, name + "tail").ok());
  EXPECT_EQ(h.Call(Sys::kStat, at), 7u);
  EXPECT_TRUE(h.k().pools().violations().empty());
}

}  // namespace
}  // namespace sva::kernel
