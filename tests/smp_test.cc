// Tests for the SMP primitives (src/smp): spinlocks, per-CPU containers,
// the virtual multiprocessor's per-CPU SVA-OS state, and the epoch-based
// reclamation domain plus its kernel integration (lock-free fd/path reads
// racing writer churn — see docs/CONCURRENCY.md §5).
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hw/machine.h"
#include "src/kernel/kernel.h"
#include "src/smp/epoch.h"
#include "src/smp/lock_order.h"
#include "src/smp/percpu.h"
#include "src/smp/sync.h"
#include "src/smp/thread_shards.h"
#include "src/smp/vcpu.h"

namespace sva::smp {
namespace {

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  uint64_t counter = 0;  // Deliberately non-atomic: the lock is the guard.
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kIncrements = 20000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SpinLockTest, TryLockFailsWhileHeld) {
  SpinLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(PerCpuTest, BindingSelectsSlot) {
  PerCpu<int> slots;
  {
    ScopedCpu bind(3);
    EXPECT_EQ(current_cpu_id(), 3u);
    slots.Current() = 42;
  }
  EXPECT_EQ(current_cpu_id(), 0u);  // Binding is scoped.
  EXPECT_EQ(slots.ForCpu(3), 42);
  EXPECT_EQ(slots.ForCpu(0), 0);
}

TEST(PerCpuTest, BindingClampsToMaxCpus) {
  ScopedCpu bind(kMaxCpus + 5);
  EXPECT_EQ(current_cpu_id(), kMaxCpus - 1);
}

TEST(ShardedCounterTest, SumsAcrossConcurrentShards) {
  ShardedCounter counter;
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kAdds = 10000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, t] {
      ScopedCpu bind(t);
      for (uint64_t i = 0; i < kAdds; ++i) {
        counter.Add();
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kAdds);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

// A live count that rises on one CPU and falls on another (a kmalloc freed
// by a different CPU): the shards wrap below zero, the sum stays exact.
struct TwoCounters {
  uint64_t a = 0;
  uint64_t b = 0;
};

uint64_t SumOfA(const ThreadShards<TwoCounters>& shards) {
  uint64_t total = 0;
  shards.ForEach([&total](const TwoCounters& c) { total += LoadCounter(c.a); });
  return total;
}

TEST(ThreadShardsTest, EachThreadWritesItsOwnShard) {
  ThreadShards<TwoCounters> shards;
  Bump(shards.Local().a);
  EXPECT_EQ(&shards.Local(), &shards.Local());
  std::atomic<int> arrived{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&shards, &arrived] {
      ScopedCpu bind(0);  // All on one CPU id: still one shard each.
      Bump(shards.Local().a);
      // Hold the shard until every worker has one.
      arrived.fetch_add(1);
      while (arrived.load() < 4) {
        std::this_thread::yield();
      }
      for (int i = 1; i < 1000; ++i) {
        Bump(shards.Local().a);
        Bump(shards.Local().b, 2);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(SumOfA(shards), 4001u);
  EXPECT_EQ(shards.shard_count(), 5u);
}

TEST(ThreadShardsTest, AnExitedThreadsShardKeepsItsCountsForTheNext) {
  ThreadShards<TwoCounters> shards;
  for (int round = 0; round < 20; ++round) {
    std::thread([&shards] { Bump(shards.Local().a, 3); }).join();
  }
  EXPECT_EQ(SumOfA(shards), 60u);
  EXPECT_EQ(shards.shard_count(), 1u);
  shards.ForEachMutable([](TwoCounters& c) { StoreCounter(c.a, 0); });
  EXPECT_EQ(SumOfA(shards), 0u);
}

TEST(ThreadShardsTest, ManySetsOnOneThreadKeepTheirOwnShards) {
  // More live sets than the thread's lookup table has entries: colliding
  // sets evict each other's entries and find their shard again.
  std::vector<std::unique_ptr<ThreadShards<TwoCounters>>> sets;
  for (int i = 0; i < 200; ++i) {
    sets.push_back(std::make_unique<ThreadShards<TwoCounters>>());
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (auto& set : sets) {
      Bump(set->Local().a);
    }
  }
  for (auto& set : sets) {
    EXPECT_EQ(SumOfA(*set), 3u);
    EXPECT_EQ(set->shard_count(), 1u);
  }
}

TEST(ShardedCounterTest, SubOnAnotherCpuKeepsTheSumExact) {
  ShardedCounter counter;
  {
    ScopedCpu bind(0);
    counter.Add(5);
  }
  {
    ScopedCpu bind(3);
    counter.Sub(3);
  }
  EXPECT_EQ(counter.value(), 2u);
  {
    ScopedCpu bind(3);
    counter.Sub(2);
  }
  EXPECT_EQ(counter.value(), 0u);
}

class VcpuTest : public ::testing::Test {
 protected:
  hw::Machine machine_{1 << 20, 256};
};

TEST_F(VcpuTest, BootCpuAliasesMachineCpu) {
  VirtualMultiprocessor vmp(machine_.cpu());
  ASSERT_EQ(vmp.num_cpus(), 1u);
  // Writes through vCPU 0 are writes to the machine's boot CPU: single-CPU
  // behaviour is unchanged by the SMP layer.
  vmp.cpu(0).cpu().control().pc = 0x1234;
  EXPECT_EQ(machine_.cpu().control().pc, 0x1234u);
}

TEST_F(VcpuTest, ConfigureClonesBootControlState) {
  machine_.cpu().control().page_table_base = 0xBEEF000;
  VirtualMultiprocessor vmp(machine_.cpu());
  vmp.Configure(4);
  ASSERT_EQ(vmp.num_cpus(), 4u);
  for (unsigned id = 1; id < 4; ++id) {
    EXPECT_EQ(vmp.cpu(id).cpu().control().page_table_base, 0xBEEF000u)
        << "AP " << id << " did not copy the boot control state";
    EXPECT_NE(&vmp.cpu(id).cpu(), &machine_.cpu());
  }
}

TEST_F(VcpuTest, CurrentFollowsThreadBinding) {
  VirtualMultiprocessor vmp(machine_.cpu());
  vmp.Configure(4);
  {
    ScopedCpu bind(2);
    EXPECT_EQ(vmp.Current().id(), 2u);
  }
  // Threads bound past the configured count share the last CPU.
  {
    ScopedCpu bind(9);
    EXPECT_EQ(vmp.Current().id(), 3u);
  }
}

TEST_F(VcpuTest, InterruptContextStackNests) {
  VirtualCpu vcpu(1);
  EXPECT_EQ(vcpu.icontext_depth(), 0u);
  InterruptContext* outer = vcpu.PushContext(7);
  InterruptContext* inner = vcpu.PushContext(8);
  EXPECT_EQ(vcpu.icontext_depth(), 2u);
  EXPECT_EQ(inner->id(), 8u);
  // Popping a non-innermost context is ignored (the SVA-OS contract: only
  // the innermost interrupt may return).
  vcpu.PopContext(outer);
  EXPECT_EQ(vcpu.icontext_depth(), 2u);
  vcpu.PopContext(inner);
  vcpu.PopContext(outer);
  EXPECT_EQ(vcpu.icontext_depth(), 0u);
}

TEST_F(VcpuTest, ContextIdsAreUniqueAcrossCpus) {
  // Each CPU draws ids from its own sequence (no shared counter on the trap
  // path); the CPU id in the low bits keeps them distinct machine-wide.
  VirtualCpu cpu1(1);
  VirtualCpu cpu2(2);
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ids.insert(cpu1.NextContextId()).second);
    EXPECT_TRUE(ids.insert(cpu2.NextContextId()).second);
  }
  EXPECT_EQ(ids.size(), 200u);
}

// Forces the lock-order checker on (or off) for one test and restores the
// build-default afterwards, so the suite behaves the same under every
// CMake configuration (tier-1 is RelWithDebInfo, where the compile-time
// default is off).
class LockOrderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    LockOrderChecker::set_enabled(LockOrderChecker::kEnabledByDefault);
  }
};

TEST_F(LockOrderTest, InOrderAcquisitionsPass) {
  LockOrderChecker::set_enabled(true);
  OrderedSpinLock vfs(LockRank::kVfs);
  OrderedSpinLock tasks(LockRank::kTasks);
  OrderedSpinLock files(LockRank::kFiles);
  uint64_t before = LockOrderChecker::acquisitions_checked();
  vfs.lock();
  tasks.lock();
  files.lock();
  EXPECT_EQ(LockOrderChecker::held_depth(), 3);
  EXPECT_EQ(LockOrderChecker::acquisitions_checked(), before + 3);
  files.unlock();
  tasks.unlock();
  vfs.unlock();
  EXPECT_EQ(LockOrderChecker::held_depth(), 0);
}

TEST_F(LockOrderTest, OutOfOrderReleaseTolerated) {
  LockOrderChecker::set_enabled(true);
  OrderedSpinLock vfs(LockRank::kVfs);
  OrderedSpinLock files(LockRank::kFiles);
  vfs.lock();
  files.lock();
  vfs.unlock();  // Non-LIFO release is legal; only acquisition order is.
  EXPECT_EQ(LockOrderChecker::held_depth(), 1);
  files.unlock();
  EXPECT_EQ(LockOrderChecker::held_depth(), 0);
}

TEST_F(LockOrderTest, TryLockParticipates) {
  LockOrderChecker::set_enabled(true);
  OrderedSpinLock pipes(LockRank::kPipes);
  ASSERT_TRUE(pipes.try_lock());
  EXPECT_EQ(LockOrderChecker::held_depth(), 1);
  EXPECT_FALSE(pipes.try_lock());  // Contended try_lock records nothing.
  EXPECT_EQ(LockOrderChecker::held_depth(), 1);
  pipes.unlock();
  EXPECT_EQ(LockOrderChecker::held_depth(), 0);
}

TEST_F(LockOrderTest, InversionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        LockOrderChecker::set_enabled(true);
        OrderedSpinLock vfs(LockRank::kVfs);
        OrderedSpinLock files(LockRank::kFiles);
        files.lock();
        vfs.lock();  // files (50) held while acquiring vfs (10): inversion.
      },
      "lock-order violation");
}

TEST_F(LockOrderTest, RecursiveAcquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        LockOrderChecker::set_enabled(true);
        OrderedSpinLock tasks(LockRank::kTasks);
        OrderedSpinLock tasks2(LockRank::kTasks);
        tasks.lock();
        tasks2.lock();  // Equal rank counts as an inversion (no recursion).
      },
      "lock-order violation");
}

TEST_F(LockOrderTest, DisabledCheckerRecordsNothing) {
  LockOrderChecker::set_enabled(false);
  OrderedSpinLock vfs(LockRank::kVfs);
  OrderedSpinLock files(LockRank::kFiles);
  uint64_t before = LockOrderChecker::acquisitions_checked();
  // The inverted acquisition pattern is harmless while disabled: two
  // distinct locks, no blocking, and no bookkeeping.
  files.lock();
  vfs.lock();
  vfs.unlock();
  files.unlock();
  EXPECT_EQ(LockOrderChecker::acquisitions_checked(), before);
  EXPECT_EQ(LockOrderChecker::held_depth(), 0);
}

TEST_F(LockOrderTest, BuildDefaultMatchesCompileMode) {
#ifdef NDEBUG
  EXPECT_FALSE(LockOrderChecker::kEnabledByDefault);
#else
  EXPECT_TRUE(LockOrderChecker::kEnabledByDefault);
#endif
}

TEST_F(VcpuTest, StatsAggregateAcrossCpus) {
  VirtualMultiprocessor vmp(machine_.cpu());
  vmp.Configure(3);
  vmp.cpu(0).stats().syscalls_dispatched = 5;
  vmp.cpu(1).stats().syscalls_dispatched = 7;
  vmp.cpu(2).stats().save_integer = 2;
  SvaOsStats total = vmp.AggregateStats();
  EXPECT_EQ(total.syscalls_dispatched, 12u);
  EXPECT_EQ(total.save_integer, 2u);
  vmp.ResetStats();
  EXPECT_EQ(vmp.AggregateStats().syscalls_dispatched, 0u);
}

// --- Epoch-based reclamation: domain unit tests ------------------------------

TEST(EpochDomainTest, GracePeriodSpansTwoAdvances) {
  EpochDomain& d = EpochDomain::Global();
  ScopedCpu bind(0);
  std::atomic<bool> freed{false};
  d.Pin();
  d.Retire([&freed] { freed.store(true); });
  // The first advance may succeed — the pinned slot observed the retire
  // epoch E — but the retiree needs E+2, so it must not be reclaimed.
  d.TryAdvance();
  EXPECT_FALSE(freed.load());
  // No further advance while the reader still sits pinned in epoch E.
  EXPECT_FALSE(d.TryAdvance());
  EXPECT_FALSE(freed.load());
  d.Unpin();
  d.Synchronize();
  EXPECT_TRUE(freed.load());
}

// One syscall nests three guards (HandleSyscall and two current_task()
// lookups); only the outermost may touch the shared pin slot, and the inner
// ones dropping must not unpin the reader.
TEST(EpochDomainTest, NestedGuardsPinTheSlotOnce) {
  EpochDomain& d = EpochDomain::Global();
  ScopedCpu bind(0);
  const uint64_t base = d.pinned_readers();
  std::atomic<bool> freed{false};
  {
    EpochGuard outer;
    {
      EpochGuard middle;
      {
        EpochGuard inner;
        EXPECT_EQ(d.pinned_readers(), base + 1);
        d.Retire([&freed] { freed.store(true); });
        // May advance once: the slot observed the retire epoch.
        d.TryAdvance();
      }
      EXPECT_EQ(d.pinned_readers(), base + 1);
      EXPECT_FALSE(d.TryAdvance()) << "an inner unpin released the slot";
    }
    EXPECT_EQ(d.pinned_readers(), base + 1);
    EXPECT_FALSE(d.TryAdvance());
    EXPECT_FALSE(freed.load());
  }
  EXPECT_EQ(d.pinned_readers(), base);
  d.Synchronize();
  EXPECT_TRUE(freed.load());
}

TEST(EpochDomainTest, CountersBalanceAtQuiesce) {
  EpochDomain& d = EpochDomain::Global();
  ScopedCpu bind(0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    d.Retire([&ran] { ran.fetch_add(1); });
  }
  d.Synchronize();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(d.pending(), 0u);
  EXPECT_EQ(d.retired(), d.reclaimed());
  EXPECT_EQ(d.pinned_readers(), 0u);
}

TEST(EpochDomainTest, RetireDeleteFreesAfterGracePeriod) {
  EpochDomain& d = EpochDomain::Global();
  ScopedCpu bind(0);
  struct Flagged {
    explicit Flagged(std::atomic<bool>* f) : flag(f) {}
    ~Flagged() { flag->store(true); }
    std::atomic<bool>* flag;
  };
  std::atomic<bool> destroyed{false};
  RetireDelete(new Flagged(&destroyed));
  EXPECT_FALSE(destroyed.load());  // Never freed inline.
  d.Synchronize();
  EXPECT_TRUE(destroyed.load());
}

// --- Epoch-based reclamation: kernel torture ---------------------------------

// Boots a SVA-Safe kernel for the epoch torture battery (the same harness
// shape as kernel_stress_test's, local to this binary).
class EpochKernelHarness {
 public:
  EpochKernelHarness() : machine_(512ull << 20) {
    kernel::KernelConfig config;
    config.mode = kernel::KernelMode::kSvaSafe;
    kernel_ = std::make_unique<kernel::Kernel>(machine_, config);
    EXPECT_TRUE(kernel_->Boot().ok());
  }

  kernel::Kernel& k() { return *kernel_; }
  uint64_t user(uint64_t offset = 0) {
    return kernel::kUserVirtualBase +
           static_cast<uint64_t>(kernel_->current_pid()) * 0x100000 + offset;
  }
  // Syscall that must succeed (no racing writer can invalidate it).
  uint64_t Call(kernel::Sys n, uint64_t a0 = 0, uint64_t a1 = 0,
                uint64_t a2 = 0) {
    auto r = kernel_->Syscall(n, a0, a1, a2);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ~uint64_t{0};
  }

  hw::Machine machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
};

constexpr uint64_t kEBadFValue = static_cast<uint64_t>(-9);

// N reader threads spin the epoch-protected fast paths (fd lookup via
// SEEK_CUR lseek, path walk via stat, task lookup via getpid) while writer
// threads churn the very structures they read: open/close/dup/unlink and
// the metapool registry growth that rides on file writes. The assertions:
// no use-after-reclaim (no crash, zero false-positive safety checks), and
// the retire/reclaim counters balance once everything quiesces.
TEST(EpochTortureTest, ReadersSurviveWriterChurn) {
  EpochKernelHarness h;
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  constexpr int kReaderRounds = 2000;
  constexpr int kWriterRounds = 300;

  EpochDomain& d = EpochDomain::Global();
  const uint64_t reclaimed_before = d.reclaimed();

  // Per-reader file + pre-poked stat path (pages faulted in up front so the
  // reader loop never takes the address-space fault path).
  uint64_t reader_fds[kReaders];
  uint64_t reader_paths[kReaders];
  std::vector<char> payload(512, 'e');
  for (int t = 0; t < kReaders; ++t) {
    std::string path = "/epoch/r" + std::to_string(t);
    reader_paths[t] = h.user(16384 + static_cast<uint64_t>(t) * 128);
    ASSERT_TRUE(h.k().PokeUserString(reader_paths[t], path).ok());
    ASSERT_TRUE(h.k().PokeUserString(h.user(0), path).ok());
    reader_fds[t] = h.Call(kernel::Sys::kOpen, h.user(0), 1);
    ASSERT_TRUE(
        h.k().PokeUser(h.user(4096), payload.data(), payload.size()).ok());
    ASSERT_EQ(h.Call(kernel::Sys::kWrite, reader_fds[t], h.user(4096),
                     payload.size()),
              payload.size());
  }
  // Per-writer churn path.
  uint64_t writer_paths[kWriters];
  for (int t = 0; t < kWriters; ++t) {
    std::string path = "/epoch/w" + std::to_string(t);
    writer_paths[t] = h.user(24576 + static_cast<uint64_t>(t) * 128);
    ASSERT_TRUE(h.k().PokeUserString(writer_paths[t], path).ok());
  }

  h.k().svaos().ConfigureCpus(kReaders + kWriters);
  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&h, &reader_fds, &reader_paths, t] {
      ScopedCpu bind(static_cast<unsigned>(t));
      for (int round = 0; round < kReaderRounds; ++round) {
        h.Call(kernel::Sys::kStat, reader_paths[t], h.user(32768));
        h.Call(kernel::Sys::kLseek, reader_fds[t], 0, 1);  // SEEK_CUR probe.
        h.Call(kernel::Sys::kGetPid);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&h, &writer_paths, t] {
      ScopedCpu bind(static_cast<unsigned>(kReaders + t));
      for (int round = 0; round < kWriterRounds; ++round) {
        uint64_t fd = h.Call(kernel::Sys::kOpen, writer_paths[t], 1);
        h.Call(kernel::Sys::kWrite, fd, writer_paths[t], 64);
        uint64_t dup = h.Call(kernel::Sys::kDup, fd);
        h.Call(kernel::Sys::kClose, dup);
        h.Call(kernel::Sys::kClose, fd);
        if (round % 4 == 3) {
          h.Call(kernel::Sys::kUnlink, writer_paths[t]);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  // No use-after-reclaim surfaced as a safety violation or a crash.
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
  EXPECT_TRUE(h.k().pools().violations().empty());

  // Quiesce: all workers joined, so nothing is pinned; every retiree from
  // the churn must drain and the counters must balance.
  d.Synchronize();
  EXPECT_GT(d.reclaimed(), reclaimed_before) << "churn retired nothing?";
  EXPECT_EQ(d.pending(), 0u);
  EXPECT_EQ(d.retired(), d.reclaimed());
  EXPECT_EQ(d.pinned_readers(), 0u);
}

// The lock-freedom half of the torture contract: with the lock-order
// checker counting acquisitions, a window of pure reads (stat + SEEK_CUR
// lseek + getpid) must acquire files_lock_ and vfs_lock_ exactly zero
// times — the fast paths resolve fds and paths under epoch protection only.
TEST(EpochTortureTest, ReadFastPathsTakeNoSharedLocks) {
  EpochKernelHarness h;
  uint64_t path_addr = h.user(16384);
  ASSERT_TRUE(h.k().PokeUserString(path_addr, "/epoch/lockfree").ok());
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/epoch/lockfree").ok());
  uint64_t fd = h.Call(kernel::Sys::kOpen, h.user(0), 1);
  ASSERT_TRUE(h.k().PokeUser(h.user(4096), "x", 1).ok());
  ASSERT_EQ(h.Call(kernel::Sys::kWrite, fd, h.user(4096), 1), 1u);
  // Prime the read paths once so any lazy page faults happen outside the
  // counted window.
  h.Call(kernel::Sys::kStat, path_addr, h.user(32768));
  h.Call(kernel::Sys::kLseek, fd, 0, 1);

  const bool was_enabled = LockOrderChecker::enabled();
  LockOrderChecker::set_enabled(true);
  const uint64_t files_before = LockOrderChecker::acquisitions_of(
      LockRank::kFiles);
  const uint64_t vfs_before = LockOrderChecker::acquisitions_of(LockRank::kVfs);
  for (int round = 0; round < 500; ++round) {
    h.Call(kernel::Sys::kStat, path_addr, h.user(32768));
    h.Call(kernel::Sys::kLseek, fd, 0, 1);
    h.Call(kernel::Sys::kGetPid);
  }
  const uint64_t files_after = LockOrderChecker::acquisitions_of(
      LockRank::kFiles);
  const uint64_t vfs_after = LockOrderChecker::acquisitions_of(LockRank::kVfs);
  LockOrderChecker::set_enabled(was_enabled);
  EXPECT_EQ(files_after, files_before)
      << "an fd-read path fell back onto files_lock_";
  EXPECT_EQ(vfs_after, vfs_before)
      << "a path-lookup or offset-read path fell back onto vfs_lock_";
}

// Per-object locks: regular-file read, write and lseek(SEEK_SET) take
// their inode's lock once per call and pipe read and write their pipe's
// lock once per call; none of them takes vfs_lock_ (namespace changes
// only) or files_lock_ (fd-slot writers only). So two CPUs on different
// files and pipes share no lock.
TEST(EpochTortureTest, FileAndPipeDataPathsTakeOnlyTheirObjectLock) {
  EpochKernelHarness h;
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/epoch/objlock").ok());
  uint64_t fd = h.Call(kernel::Sys::kOpen, h.user(0), 1);
  std::vector<char> data(256, 'o');
  ASSERT_TRUE(h.k().PokeUser(h.user(4096), data.data(), data.size()).ok());
  ASSERT_EQ(h.Call(kernel::Sys::kWrite, fd, h.user(4096), 256), 256u);
  ASSERT_EQ(h.Call(kernel::Sys::kPipe, h.user(256)), 0u);
  uint32_t pipe_fds[2];
  ASSERT_TRUE(h.k().PeekUser(h.user(256), pipe_fds, 8).ok());
  // Prime every path once so lazy page faults happen outside the window.
  ASSERT_EQ(h.Call(kernel::Sys::kLseek, fd, 0, 0), 0u);
  ASSERT_EQ(h.Call(kernel::Sys::kRead, fd, h.user(8192), 64), 64u);
  ASSERT_EQ(h.Call(kernel::Sys::kWrite, pipe_fds[1], h.user(4096), 64), 64u);
  ASSERT_EQ(h.Call(kernel::Sys::kRead, pipe_fds[0], h.user(8192), 64), 64u);

  constexpr uint64_t kCalls = 200;
  const bool was_enabled = LockOrderChecker::enabled();
  LockOrderChecker::set_enabled(true);
  // Runs `call` kCalls times and returns the acquisitions of each rank.
  auto count = [&](const std::function<void()>& call) {
    constexpr LockRank kRanks[] = {LockRank::kVfs, LockRank::kInode,
                                   LockRank::kPipes, LockRank::kFiles};
    std::map<LockRank, uint64_t> before;
    for (LockRank rank : kRanks) {
      before[rank] = LockOrderChecker::acquisitions_of(rank);
    }
    for (uint64_t i = 0; i < kCalls; ++i) {
      call();
    }
    std::map<LockRank, uint64_t> taken;
    for (LockRank rank : kRanks) {
      taken[rank] = LockOrderChecker::acquisitions_of(rank) - before[rank];
    }
    return taken;
  };
  auto read = count([&] {
    h.Call(kernel::Sys::kLseek, fd, 0, 1);  // SEEK_CUR probe: no lock.
    h.Call(kernel::Sys::kRead, fd, h.user(8192), 1);
  });
  auto seek = count([&] { h.Call(kernel::Sys::kLseek, fd, 0, 0); });
  auto write = count([&] {
    h.Call(kernel::Sys::kWrite, fd, h.user(4096), 64);
  });
  auto pipe_write = count([&] {
    h.Call(kernel::Sys::kWrite, pipe_fds[1], h.user(4096), 8);
  });
  auto pipe_read = count([&] {
    h.Call(kernel::Sys::kRead, pipe_fds[0], h.user(8192), 8);
  });
  LockOrderChecker::set_enabled(was_enabled);

  for (auto* file_path : {&read, &seek, &write}) {
    EXPECT_EQ((*file_path)[LockRank::kInode], kCalls);
    EXPECT_EQ((*file_path)[LockRank::kPipes], 0u);
  }
  for (auto* pipe_path : {&pipe_write, &pipe_read}) {
    EXPECT_EQ((*pipe_path)[LockRank::kPipes], kCalls);
    EXPECT_EQ((*pipe_path)[LockRank::kInode], 0u);
  }
  for (auto* any : {&read, &seek, &write, &pipe_write, &pipe_read}) {
    EXPECT_EQ((*any)[LockRank::kVfs], 0u)
        << "a file or pipe data path took vfs_lock_";
    EXPECT_EQ((*any)[LockRank::kFiles], 0u)
        << "a file or pipe data path took files_lock_";
  }
}

// The publish-then-retire regression: a close (or dup/close) racing a
// reader resolving the same fd must yield either the old file (the reader
// pinned before the slot was cleared) or a clean kEBadF — never a torn
// slot, a crash, or a use-after-reclaim.
TEST(EpochTortureTest, CloseDuringReadYieldsOldFileOrEbadf) {
  EpochKernelHarness h;
  constexpr int kRounds = 1500;
  ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/epoch/race").ok());
  uint64_t fd = h.Call(kernel::Sys::kOpen, h.user(0), 1);
  ASSERT_TRUE(h.k().PokeUser(h.user(4096), "y", 1).ok());
  ASSERT_EQ(h.Call(kernel::Sys::kWrite, fd, h.user(4096), 1), 1u);

  h.k().svaos().ConfigureCpus(2);
  std::atomic<bool> stop{false};
  std::thread reader([&h, &stop, fd] {
    ScopedCpu bind(0);
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = h.k().Syscall(kernel::Sys::kLseek, fd, 0, 1);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Old file: a non-negative offset. Concurrently closed: kEBadF.
      ASSERT_TRUE(*r == kEBadFValue || static_cast<int64_t>(*r) >= 0)
          << "torn fd slot: lseek returned " << static_cast<int64_t>(*r);
    }
  });
  {
    ScopedCpu bind(1);
    for (int round = 0; round < kRounds; ++round) {
      // Reopen lands on the lowest free slot — the one just closed — so the
      // reader keeps probing a slot that flips between live and dead.
      uint64_t dup = h.Call(kernel::Sys::kDup, fd);
      ASSERT_EQ(h.Call(kernel::Sys::kClose, fd), 0u);
      ASSERT_EQ(h.Call(kernel::Sys::kClose, dup), 0u);
      auto reopened = h.k().Syscall(kernel::Sys::kOpen, h.user(0), 1);
      ASSERT_TRUE(reopened.ok());
      fd = *reopened;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(h.k().pools().stats().total_failed(), 0u);
}

// The check_epoch_reclaim ctest gate runs the torture battery plus this
// test in one process: after a self-contained churn (so the test also holds
// in isolation), the domain must show real reclamation and no reader left
// pinned — the wired-up equivalent of asserting sva_epoch_reclaimed_total
// > 0 and sva_epoch_pinned_readers == 0 on /metrics.
TEST(EpochReclaimGateTest, ChurnReclaimsAndNothingStaysPinned) {
  EpochDomain& d = EpochDomain::Global();
  const uint64_t reclaimed_before = d.reclaimed();
  {
    EpochKernelHarness h;
    ASSERT_TRUE(h.k().PokeUserString(h.user(0), "/epoch/gate").ok());
    for (int round = 0; round < 64; ++round) {
      uint64_t fd = h.Call(kernel::Sys::kOpen, h.user(0), 1);
      h.Call(kernel::Sys::kWrite, fd, h.user(0), 16);
      h.Call(kernel::Sys::kClose, fd);
      if (round % 4 == 3) {
        h.Call(kernel::Sys::kUnlink, h.user(0));
      }
    }
    // ~Kernel synchronizes the domain before its allocators die.
  }
  EXPECT_GT(d.reclaimed(), reclaimed_before);
  EXPECT_EQ(d.pending(), 0u);
  EXPECT_EQ(d.pinned_readers(), 0u);
}

}  // namespace
}  // namespace sva::smp
