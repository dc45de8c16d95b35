// Model-check battery for the virtual-memory subsystem's integrity
// invariants (the §4.3 properties, exercised as state-space probes rather
// than single examples):
//
//   I1. No user-accessible mapping of a kernel or page-table frame ever
//       exists — every attempt dies with a SafetyViolation at map time.
//   I2. TLB / page-table coherence: after any translation mutation plus its
//       shootdown, no CPU's TLB holds the stale entry.
//   I3. COW correctness: a forked page is shared until the first write;
//       breaking the share never loses a write and never leaks the other
//       side's data.
//   I4. Frame accounting: refcounts count mappings; teardown returns every
//       frame, and recycled frames come back zeroed.
//
// The concurrent battery drives create/fault/fork/destroy plus adversarial
// remap attempts from four virtual CPUs against one shared VmManager; it is
// labelled `concurrency` so the tsan preset replays it under the race
// detector, and the check-mmu-integrity ctest gate runs it by name.
//
// The litmus battery (TlbLitmusTest) races the lock-free per-CPU TLB lookup
// against its writers at 1, 2 and 4 virtual CPUs, in the shapes of
// "Relaxed virtual memory in Armv8-A" (arXiv 2203.00642): no translation
// after unmap + shootdown uses the old frame, a remap never shows a torn
// frame/flags pair, and a COW break is visible on every CPU before the
// writer continues.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "src/hw/machine.h"
#include "src/mm/frame_allocator.h"
#include "src/mm/vm.h"
#include "src/smp/percpu.h"
#include "src/svaos/svaos.h"

namespace sva::mm {
namespace {

constexpr uint64_t kPage = hw::kPageSize;

class MmuIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os_.ConfigureCpus(4);
    ASSERT_TRUE(vm_.Init().ok());
  }

  uint64_t MustResolve(AddressSpace& as, uint64_t vaddr, bool write) {
    auto r = vm_.Resolve(as, vaddr, write);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : 0;
  }

  hw::Machine machine_{256ull << 20};
  svaos::SvaOS os_{machine_};
  FrameAllocator frames_{machine_, os_};
  VmManager vm_{os_, frames_};
};

TEST_F(MmuIntegrityTest, DemandFillIsLazyZeroedAndWritable) {
  auto as = vm_.CreateAddressSpace(0x400000, 16, 64);
  ASSERT_TRUE(as.ok());
  EXPECT_EQ((*as)->resident_pages(), 0u);  // Nothing committed up front.

  uint64_t pa = MustResolve(**as, 0x400000 + 123, /*write=*/false);
  EXPECT_EQ(*machine_.memory().Read(pa, 8), 0u);  // Zero-filled.
  EXPECT_EQ((*as)->resident_pages(), 1u);
  EXPECT_EQ(machine_.mmu().frame_type(pa & ~(kPage - 1)),
            hw::FrameType::kUser);

  // Write through the resolved translation, read it back via a re-resolve.
  uint64_t wa = MustResolve(**as, 0x401000, /*write=*/true);
  ASSERT_TRUE(machine_.memory().Write(wa, 8, 0xFEEDu).ok());
  EXPECT_EQ(*machine_.memory().Read(
                MustResolve(**as, 0x401000, /*write=*/false), 8),
            0xFEEDu);

  VmStats s = vm_.stats();
  EXPECT_EQ(s.demand_fills, 2u);
  EXPECT_GE(s.page_faults, 2u);
  ASSERT_TRUE(vm_.Destroy(**as).ok());
}

TEST_F(MmuIntegrityTest, OutsideTheLimitIsASafetyViolation) {
  auto as = vm_.CreateAddressSpace(0x400000, 4, 8);
  ASSERT_TRUE(as.ok());
  // Below the base and beyond the frontier both fault like hardware.
  EXPECT_EQ(vm_.Resolve(**as, 0x3FF000, false).status().code(),
            StatusCode::kSafetyViolation);
  EXPECT_EQ(vm_.Resolve(**as, 0x400000 + 4 * kPage, true).status().code(),
            StatusCode::kSafetyViolation);
  // brk-style growth makes the page reachable without committing it.
  ASSERT_TRUE(vm_.ExtendLimit(**as, 6).ok());
  EXPECT_TRUE(vm_.Resolve(**as, 0x400000 + 4 * kPage, true).ok());
  // Growth past the hard cap is ResourceExhausted (kENoMem), not an abort.
  EXPECT_EQ(vm_.ExtendLimit(**as, 9).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(vm_.Destroy(**as).ok());
}

TEST_F(MmuIntegrityTest, CowForkSharesThenCopiesOnWrite) {
  auto parent = vm_.CreateAddressSpace(0x400000, 8, 16);
  auto child = vm_.CreateAddressSpace(0x600000, 8, 16);
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(child.ok());

  // Parent dirties three pages with distinct patterns.
  for (uint64_t p = 0; p < 3; ++p) {
    uint64_t pa = MustResolve(**parent, 0x400000 + p * kPage, true);
    ASSERT_TRUE(machine_.memory().Write(pa, 8, 0xA0 + p).ok());
  }
  ASSERT_TRUE(vm_.CloneCow(**parent, **child).ok());

  // Shared until written: same frame, refcount 2, identical contents.
  uint64_t parent_pa = MustResolve(**parent, 0x400000, false);
  uint64_t child_pa = MustResolve(**child, 0x600000, false);
  EXPECT_EQ(parent_pa, child_pa);
  EXPECT_EQ(frames_.RefCount(child_pa & ~(kPage - 1)), 2u);
  EXPECT_EQ(*machine_.memory().Read(child_pa, 8), 0xA0u);

  // Child write breaks the share: private frame, parent data untouched.
  uint64_t child_wa = MustResolve(**child, 0x600000, true);
  EXPECT_NE(child_wa & ~(kPage - 1), parent_pa & ~(kPage - 1));
  ASSERT_TRUE(machine_.memory().Write(child_wa, 8, 0xBEEF).ok());
  EXPECT_EQ(*machine_.memory().Read(
                MustResolve(**parent, 0x400000, false), 8),
            0xA0u);
  EXPECT_EQ(frames_.RefCount(parent_pa & ~(kPage - 1)), 1u);

  VmStats s = vm_.stats();
  EXPECT_EQ(s.forks_cow, 1u);
  EXPECT_GE(s.cow_faults, 1u);
  EXPECT_GE(s.cow_copies, 1u);
  ASSERT_TRUE(vm_.Destroy(**child).ok());
  ASSERT_TRUE(vm_.Destroy(**parent).ok());
}

TEST_F(MmuIntegrityTest, SoleOwnerCowBreakUpgradesInPlace) {
  auto parent = vm_.CreateAddressSpace(0x400000, 4, 8);
  auto child = vm_.CreateAddressSpace(0x600000, 4, 8);
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(child.ok());
  uint64_t pa = MustResolve(**parent, 0x400000, true);
  ASSERT_TRUE(machine_.memory().Write(pa, 8, 0x77).ok());
  ASSERT_TRUE(vm_.CloneCow(**parent, **child).ok());
  // The child exits before anyone writes: the parent becomes sole owner.
  ASSERT_TRUE(vm_.Destroy(**child).ok());
  uint64_t cow_copies_before = vm_.stats().cow_copies;
  uint64_t wa = MustResolve(**parent, 0x400000, true);
  EXPECT_EQ(wa & ~(kPage - 1), pa & ~(kPage - 1));  // Same frame: no copy.
  EXPECT_EQ(vm_.stats().cow_copies, cow_copies_before);
  EXPECT_EQ(*machine_.memory().Read(wa, 8), 0x77u);
  ASSERT_TRUE(vm_.Destroy(**parent).ok());
}

TEST_F(MmuIntegrityTest, KernelAndPageTableFramesNeverBecomeUserVisible) {
  auto as = vm_.CreateAddressSpace(0x400000, 8, 8);
  ASSERT_TRUE(as.ok());
  const uint32_t user_flags =
      hw::kPtePresent | hw::kPteWritable | hw::kPteUser;

  auto kframe = frames_.Allocate(hw::FrameType::kKernel);
  ASSERT_TRUE(kframe.ok());
  EXPECT_EQ(os_.MmuMap((*as)->asid(), 0x404000, *kframe, user_flags).code(),
            StatusCode::kSafetyViolation);
  EXPECT_FALSE(machine_.mmu().IsMapped((*as)->asid(), 0x404000));

  auto ptframe = frames_.Allocate(hw::FrameType::kPageTable);
  ASSERT_TRUE(ptframe.ok());
  EXPECT_EQ(
      os_.MmuMap((*as)->asid(), 0x405000, *ptframe, user_flags).code(),
      StatusCode::kSafetyViolation);
  // Even a kernel-only WRITABLE mapping of a page-table frame is refused.
  EXPECT_EQ(os_.MmuMap((*as)->asid(), 0x405000, *ptframe,
                       hw::kPtePresent | hw::kPteWritable)
                .code(),
            StatusCode::kSafetyViolation);

  // Protect is the same gate: a user page cannot be re-pointed by flag
  // games, and an existing mapping of a later-redeclared frame cannot be
  // upgraded to user visibility.
  uint64_t pa = MustResolve(**as, 0x400000, true);
  uint64_t frame = pa & ~(kPage - 1);
  ASSERT_TRUE(os_.DeclareFrameType(frame, hw::FrameType::kKernel).ok());
  EXPECT_EQ(
      os_.MmuProtect((*as)->asid(), 0x400000, user_flags).code(),
      StatusCode::kSafetyViolation);
  ASSERT_TRUE(os_.DeclareFrameType(frame, hw::FrameType::kUser).ok());

  frames_.Release(*kframe);
  frames_.Release(*ptframe);
  EXPECT_GE(os_.stats().mmu_checks_failed, 4u);
  ASSERT_TRUE(vm_.Destroy(**as).ok());
}

TEST_F(MmuIntegrityTest, ShootdownLeavesNoStaleEntryOnAnyCpu) {
  auto as = vm_.CreateAddressSpace(0x400000, 8, 8);
  ASSERT_TRUE(as.ok());
  const uint32_t asid = (*as)->asid();

  // Fill every CPU's TLB with the same translation.
  for (unsigned c = 0; c < 4; ++c) {
    smp::ScopedCpu bind(c);
    MustResolve(**as, 0x400000, false);
    hw::PageTableEntry pte;
    ASSERT_TRUE(os_.cpu(c).tlb().Lookup(asid, 0x400000, &pte));
  }
  uint64_t ipis_before = vm_.stats().shootdown_ipis;

  // Any mutation + shootdown must purge all four, not just the initiator.
  ASSERT_TRUE(os_.TlbShootdown(asid, 0x400000, /*entire_asid=*/false).ok());
  for (unsigned c = 0; c < 4; ++c) {
    hw::PageTableEntry pte;
    EXPECT_FALSE(os_.cpu(c).tlb().Lookup(asid, 0x400000, &pte))
        << "stale TLB entry on cpu " << c;
  }
  // The IPI was delivered through the SVA-OS interrupt path.
  EXPECT_GT(vm_.stats().shootdown_ipis, ipis_before);
  // Remote CPUs saw the invalidation.
  EXPECT_GE(os_.cpu(1).tlb().stats().shootdowns_received, 1u);

  // Reset is the macro version: every translation gone, fresh faults only.
  MustResolve(**as, 0x400000, true);
  ASSERT_TRUE(vm_.Reset(**as, 8).ok());
  EXPECT_EQ((*as)->resident_pages(), 0u);
  for (unsigned c = 0; c < 4; ++c) {
    hw::PageTableEntry pte;
    EXPECT_FALSE(os_.cpu(c).tlb().Lookup(asid, 0x400000, &pte));
  }
  ASSERT_TRUE(vm_.Destroy(**as).ok());
}

TEST_F(MmuIntegrityTest, TeardownReturnsEveryFrameZeroed) {
  size_t live_before = frames_.live_frames();
  auto as = vm_.CreateAddressSpace(0x400000, 8, 8);
  ASSERT_TRUE(as.ok());
  std::vector<uint64_t> dirtied;
  for (uint64_t p = 0; p < 8; ++p) {
    uint64_t pa = MustResolve(**as, 0x400000 + p * kPage, true);
    ASSERT_TRUE(machine_.memory().Write(pa, 8, 0xD00D).ok());
    dirtied.push_back(pa & ~(kPage - 1));
  }
  ASSERT_TRUE(vm_.Destroy(**as).ok());
  EXPECT_EQ(frames_.live_frames(), live_before);
  EXPECT_GE(frames_.free_frames(), 8u);
  for (uint64_t frame : dirtied) {
    EXPECT_EQ(machine_.mmu().frame_type(frame), hw::FrameType::kUnused);
  }
  // Recycled frames are scrubbed before reuse: no cross-space data leak.
  auto again = frames_.Allocate(hw::FrameType::kUser);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*machine_.memory().Read(*again, 8), 0u);
  frames_.Release(*again);
}

// The concurrent probe: four virtual CPUs hammer one VmManager with the
// full op mix — create/fault/write/fork/COW-break/adversarial-remap/destroy
// — plus a shared address space all CPUs fault concurrently. Integrity
// invariants are checked inside the loop (failures counted atomically) and
// globally after the join.
TEST_F(MmuIntegrityTest, ConcurrentFaultForkRemapDestroyKeepsInvariants) {
  constexpr unsigned kCpus = 4;
  constexpr unsigned kIters = 12;
  const uint32_t user_flags =
      hw::kPtePresent | hw::kPteWritable | hw::kPteUser;

  // A shared space: each CPU owns pages [cpu*4, cpu*4+4) so writes never
  // race byte-for-byte, but all fault/refill traffic hits one lock + TLBs.
  auto shared = vm_.CreateAddressSpace(0x8000000, 32, 32);
  ASSERT_TRUE(shared.ok());

  std::atomic<unsigned> failures{0};
  auto fail = [&](const char* what, const Status& st) {
    failures.fetch_add(1);
    std::fprintf(stderr, "invariant failed: %s: %s\n", what,
                 st.ToString().c_str());
  };

  std::vector<std::thread> cpus;
  for (unsigned t = 0; t < kCpus; ++t) {
    cpus.emplace_back([&, t] {
      smp::ScopedCpu bind(t);
      for (unsigned i = 0; i < kIters && failures.load() == 0; ++i) {
        const uint64_t tag = (static_cast<uint64_t>(t) << 32) | i;
        const uint64_t pbase =
            0x10000000ull + (t * kIters + i) * 0x200000ull;
        const uint64_t cbase = pbase + 0x100000ull;
        auto parent = vm_.CreateAddressSpace(pbase, 8, 16);
        auto child = vm_.CreateAddressSpace(cbase, 8, 16);
        if (!parent.ok() || !child.ok()) {
          fail("create", parent.ok() ? child.status() : parent.status());
          break;
        }
        // Fault four pages and stamp them.
        for (uint64_t p = 0; p < 4; ++p) {
          auto pa = vm_.Resolve(**parent, pbase + p * kPage, true);
          if (!pa.ok()) { fail("parent fault", pa.status()); break; }
          (void)machine_.memory().Write(*pa, 8, tag + p);
        }
        Status forked = vm_.CloneCow(**parent, **child);
        if (!forked.ok()) { fail("fork", forked); break; }
        // Child sees the parent's data through the shared frames.
        for (uint64_t p = 0; p < 4; ++p) {
          auto pa = vm_.Resolve(**child, cbase + p * kPage, false);
          if (!pa.ok()) { fail("child read", pa.status()); break; }
          if (*machine_.memory().Read(*pa, 8) != tag + p) {
            failures.fetch_add(1);
            std::fprintf(stderr, "child read wrong data (cpu %u it %u)\n",
                         t, i);
            break;
          }
        }
        // COW break on one side; the other side's view must not change.
        auto wa = vm_.Resolve(**child, cbase, true);
        if (!wa.ok()) { fail("cow break", wa.status()); break; }
        (void)machine_.memory().Write(*wa, 8, ~tag);
        auto ppa = vm_.Resolve(**parent, pbase, false);
        if (!ppa.ok()) { fail("parent reread", ppa.status()); break; }
        if (*machine_.memory().Read(*ppa, 8) != tag) {
          failures.fetch_add(1);
          std::fprintf(stderr, "COW leaked a write (cpu %u it %u)\n", t, i);
        }
        // Adversarial remap: a kernel frame pushed at the MMU ops with
        // user flags must die, every time, on every CPU, mid-churn.
        auto kframe = frames_.Allocate(hw::FrameType::kKernel);
        if (kframe.ok()) {
          Status st = os_.MmuMap((*parent)->asid(), pbase + 7 * kPage,
                                 *kframe, user_flags);
          if (st.code() != StatusCode::kSafetyViolation) {
            failures.fetch_add(1);
            std::fprintf(stderr,
                         "kernel frame mapped user-visible (cpu %u)\n", t);
          }
          frames_.Release(*kframe);
        }
        // Shared-space traffic: fault/refill this CPU's own pages.
        for (uint64_t p = 0; p < 4; ++p) {
          auto pa = vm_.Resolve(**shared,
                                0x8000000ull + (t * 4 + p) * kPage, true);
          if (!pa.ok()) { fail("shared fault", pa.status()); break; }
          (void)machine_.memory().Write(*pa, 8, tag);
        }
        Status d1 = vm_.Destroy(**child);
        Status d2 = vm_.Destroy(**parent);
        if (!d1.ok() || !d2.ok()) {
          fail("destroy", d1.ok() ? d2 : d1);
          break;
        }
      }
    });
  }
  for (std::thread& cpu : cpus) {
    cpu.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  // Global sweep after the churn: the only live space is the shared one,
  // every mapped frame it holds is a declared user frame, and no
  // user-accessible PTE anywhere points at anything else.
  ASSERT_TRUE(vm_.Destroy(**shared).ok());
  EXPECT_EQ(frames_.live_frames(), 0u);
  smp::SvaOsStats os = os_.stats();
  EXPECT_GE(os.mmu_checks_failed, kCpus);  // Every attack died checked.
  EXPECT_GT(os.tlb_shootdowns, 0u);
  VmStats vs = vm_.stats();
  EXPECT_EQ(vs.forks_cow, kCpus * kIters);
  EXPECT_GE(vs.cow_copies, 1u);
}

// --- Litmus battery ------------------------------------------------------------

// A machine with GetParam() virtual CPUs. RunOnCpus starts a writer bound to
// CPU 0 beside one reader bound to each CPU, so even the 1-CPU run races a
// TLB's lock-free reader against a writer of the same TLB.
class TlbLitmusTest : public ::testing::TestWithParam<unsigned> {
 protected:
  static constexpr uint64_t kVa = 0x400000;

  void SetUp() override {
    os_.ConfigureCpus(GetParam());
    ASSERT_TRUE(vm_.Init().ok());
  }

  // The writer starts once every reader is running.
  void RunOnCpus(const std::function<void()>& writer,
                 const std::function<void(unsigned)>& reader) {
    std::atomic<unsigned> running{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      smp::ScopedCpu bind(0);
      while (running.load() < GetParam()) {
        std::this_thread::yield();
      }
      writer();
    });
    for (unsigned c = 0; c < GetParam(); ++c) {
      threads.emplace_back([&, c] {
        smp::ScopedCpu bind(c);
        running.fetch_add(1);
        reader(c);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  // Counts a failed condition from any thread (gtest asserts are not
  // thread-safe to abort from).
  void Check(bool ok, const char* what) {
    if (!ok) {
      failures_.fetch_add(1);
      std::fprintf(stderr, "litmus failed (%u cpus): %s\n", GetParam(), what);
    }
  }

  hw::Machine machine_{64ull << 20};
  svaos::SvaOS os_{machine_};
  FrameAllocator frames_{machine_, os_};
  VmManager vm_{os_, frames_};
  std::atomic<unsigned> failures_{0};
};

// Unmap + shootdown, then a later lookup (the Armv8 "TLBI; DSB" shape):
// once a round's Reset returns, no translation that starts afterwards on
// any CPU may yield that round's frame. Each round's frame is pinned with an
// extra reference, so frames are never recycled and a stale one is
// recognisable.
TEST_P(TlbLitmusTest, NoTranslationAfterUnmapAndShootdownUsesTheOldFrame) {
  constexpr unsigned kRounds = 200;
  auto as = vm_.CreateAddressSpace(kVa, 1, 1);
  ASSERT_TRUE(as.ok());
  std::vector<std::atomic<uint64_t>> frames(kRounds);
  std::atomic<unsigned> retired{0};  // Rounds whose Reset has returned.
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> done{false};
  RunOnCpus(
      [&] {
        for (unsigned i = 0; i < kRounds; ++i) {
          auto pa = vm_.Resolve(**as, kVa, /*write=*/true);
          Check(pa.ok(), "writer fault");
          if (!pa.ok()) {
            break;
          }
          const uint64_t frame = *pa & ~(kPage - 1);
          frames_.AddRef(frame);
          frames[i].store(frame, std::memory_order_release);
          // Let the readers translate through this mapping for a while.
          const uint64_t target = reads.load() + 4 * GetParam();
          for (int spin = 0; spin < 1000 && reads.load() < target; ++spin) {
            std::this_thread::yield();
          }
          Check(vm_.Reset(**as, 1).ok(), "unmap");
          retired.store(i + 1, std::memory_order_release);
        }
        done.store(true, std::memory_order_release);
      },
      [&](unsigned) {
        while (!done.load(std::memory_order_acquire)) {
          const unsigned r = retired.load(std::memory_order_acquire);
          auto pa = vm_.Resolve(**as, kVa, /*write=*/false);
          reads.fetch_add(1);
          Check(pa.ok(), "reader translation");
          const uint64_t frame = pa.ok() ? *pa & ~(kPage - 1) : 0;
          for (unsigned j = 0; j < r; ++j) {
            Check(frames[j].load(std::memory_order_relaxed) != frame,
                  "translated through an unmapped, shot-down frame");
          }
        }
      });
  EXPECT_EQ(failures_.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(vm_.Destroy(**as).ok());
  for (std::atomic<uint64_t>& frame : frames) {
    if (frame.load() != 0) {
      frames_.Release(frame.load());
    }
  }
  EXPECT_EQ(frames_.live_frames(), 0u);
}

// Break-before-make remap: the writer alternates a page between two
// mappings that differ in every field, shooting the old one down on every
// CPU before each CPU's TLB is refilled with the new one. A lock-free
// lookup returns the old pair, the new pair or a miss — never a frame with
// the other mapping's flags.
TEST_P(TlbLitmusTest, RemapNeverShowsATornFrameFlagsPair) {
  constexpr unsigned kRounds = 20000;
  constexpr uint32_t kAsid = 7;
  const hw::PageTableEntry kOld{0x0F0F0, hw::kPtePresent | hw::kPteUser};
  const hw::PageTableEntry kNew{
      0xF0F0F, hw::kPtePresent | hw::kPteUser | hw::kPteWritable};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};
  RunOnCpus(
      [&] {
        // Past kRounds, keep going until the readers have seen some hits.
        for (unsigned i = 0; i < kRounds || (hits.load() < 100 &&
                                             i < 100 * kRounds);
             ++i) {
          Check(os_.TlbShootdown(kAsid, kVa, /*entire_asid=*/false).ok(),
                "shootdown");
          for (unsigned c = 0; c < GetParam(); ++c) {
            os_.cpu(c).tlb().Insert(kAsid, kVa, i % 2 == 0 ? kNew : kOld);
          }
        }
        done.store(true, std::memory_order_release);
      },
      [&](unsigned c) {
        hw::Tlb& tlb = os_.cpu(c).tlb();
        while (!done.load(std::memory_order_acquire)) {
          hw::PageTableEntry pte;
          if (!tlb.Lookup(kAsid, kVa, &pte)) {
            continue;
          }
          hits.fetch_add(1, std::memory_order_relaxed);
          const bool old_pair = pte.physical_page == kOld.physical_page &&
                                pte.flags == kOld.flags;
          const bool new_pair = pte.physical_page == kNew.physical_page &&
                                pte.flags == kNew.flags;
          Check(old_pair || new_pair, "torn frame/flags pair");
        }
      });
  EXPECT_EQ(failures_.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

// COW break, then the writer continues: every CPU holds the shared
// read-only entry when the writer breaks the share, and once the writer has
// stored through its private copy and said so, every CPU's next
// translation reaches that copy and sees the store.
TEST_P(TlbLitmusTest, CowBreakIsVisibleOnEveryCpuBeforeTheWriterContinues) {
  constexpr unsigned kRounds = 50;
  std::barrier sync(static_cast<std::ptrdiff_t>(GetParam()) + 1);
  std::atomic<AddressSpace*> space{nullptr};
  std::atomic<uint64_t> shared_frame{0};
  std::atomic<bool> broken{false};
  RunOnCpus(
      [&] {
        for (unsigned i = 0; i < kRounds; ++i) {
          auto parent = vm_.CreateAddressSpace(kVa, 1, 1);
          auto child = vm_.CreateAddressSpace(0x800000, 1, 1);
          if (!parent.ok() || !child.ok()) {
            std::abort();  // Readers wait at the barrier; cannot go on.
          }
          auto pa = vm_.Resolve(**parent, kVa, /*write=*/true);
          Check(pa.ok(), "parent fault");
          (void)machine_.memory().Write(*pa, 8, i);
          Check(vm_.CloneCow(**parent, **child).ok(), "fork");
          shared_frame.store(*pa & ~(kPage - 1), std::memory_order_relaxed);
          space.store(parent->get(), std::memory_order_relaxed);
          broken.store(false, std::memory_order_relaxed);
          sync.arrive_and_wait();  // Readers load the shared entry.
          sync.arrive_and_wait();  // Every CPU's TLB holds it.
          auto copy = vm_.Resolve(**parent, kVa, /*write=*/true);
          Check(copy.ok(), "COW break");
          (void)machine_.memory().Write(*copy, 8, ~uint64_t{i});
          broken.store(true, std::memory_order_release);
          sync.arrive_and_wait();  // Readers have checked.
          Check(vm_.Destroy(**child).ok() && vm_.Destroy(**parent).ok(),
                "destroy");
        }
      },
      [&](unsigned) {
        for (unsigned i = 0; i < kRounds; ++i) {
          sync.arrive_and_wait();
          AddressSpace& as = *space.load(std::memory_order_relaxed);
          const uint64_t shared = shared_frame.load(std::memory_order_relaxed);
          auto pa = vm_.Resolve(as, kVa, /*write=*/false);
          Check(pa.ok() && (*pa & ~(kPage - 1)) == shared,
                "reader missed the shared frame");
          Check(pa.ok() && *machine_.memory().Read(*pa, 8) == i,
                "reader missed the parent's data");
          sync.arrive_and_wait();
          while (true) {
            const bool after = broken.load(std::memory_order_acquire);
            auto now = vm_.Resolve(as, kVa, /*write=*/false);
            if (!after) {
              continue;
            }
            Check(now.ok() && (*now & ~(kPage - 1)) != shared,
                  "translated through the broken COW share");
            Check(now.ok() && *machine_.memory().Read(*now, 8) == ~uint64_t{i},
                  "missed the writer's store after the COW break");
            break;
          }
          sync.arrive_and_wait();
        }
      });
  EXPECT_EQ(failures_.load(), 0u);
  EXPECT_EQ(frames_.live_frames(), 0u);
  EXPECT_GE(vm_.stats().cow_copies, kRounds);
}

INSTANTIATE_TEST_SUITE_P(Cpus, TlbLitmusTest, ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return std::to_string(info.param) + "cpu";
                         });

}  // namespace
}  // namespace sva::mm
