#include <gtest/gtest.h>

#include <set>

#include "src/runtime/pool_allocator.h"
#include "src/smp/percpu.h"

namespace sva::runtime {
namespace {

constexpr uint64_t kFirstPage = 0x100000;

// A simple bump page provider over an abstract address range.
class TestPages : public PageProvider {
 public:
  explicit TestPages(uint64_t limit_pages = 1 << 16)
      : limit_pages_(limit_pages) {}
  uint64_t AllocatePage() override {
    if (allocated_ >= limit_pages_) {
      return 0;
    }
    ++allocated_;
    uint64_t addr = next_;
    next_ += page_size();
    return addr;
  }
  uint64_t page_size() const override { return 4096; }
  uint64_t span() const override {
    return kFirstPage + limit_pages_ * page_size();
  }
  uint64_t allocated() const { return allocated_; }

 private:
  uint64_t next_ = kFirstPage;
  uint64_t allocated_ = 0;
  uint64_t limit_pages_;
};

TEST(PoolAllocatorTest, AllocatesAlignedDistinctObjects) {
  TestPages pages;
  PoolAllocator pool("task_cache", 96, pages);
  EXPECT_EQ(pool.object_size(), 96u);
  EXPECT_EQ(pool.slot_stride(), 96u);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t a = pool.Allocate();
    ASSERT_NE(a, 0u);
    // SVA alignment constraint: object starts are stride-aligned within the
    // page, so dangling pointers can never see a type-misaligned object.
    EXPECT_EQ((a - 0x100000) % 8, 0u);
    EXPECT_TRUE(seen.insert(a).second) << "duplicate allocation";
  }
  EXPECT_EQ(pool.live_objects(), 200u);
}

TEST(PoolAllocatorTest, StrideRoundsUpToMinimum) {
  TestPages pages;
  PoolAllocator pool("tiny", 5, pages);
  EXPECT_EQ(pool.slot_stride(), 8u);
  uint64_t a = pool.Allocate();
  uint64_t b = pool.Allocate();
  EXPECT_GE(b > a ? b - a : a - b, 8u);
}

TEST(PoolAllocatorTest, ReusesFreedMemoryInternally) {
  TestPages pages;
  PoolAllocator pool("obj", 64, pages);
  uint64_t a = pool.Allocate();
  ASSERT_TRUE(pool.Free(a).ok());
  uint64_t pages_before = pool.pages_owned();
  // The freed slot is reused before any new page is taken (internal reuse
  // is allowed; releasing to other pools is not).
  uint64_t b = pool.Allocate();
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.pages_owned(), pages_before);
}

TEST(PoolAllocatorTest, DetectsBadFree) {
  TestPages pages;
  PoolAllocator pool("obj", 64, pages);
  uint64_t a = pool.Allocate();
  EXPECT_FALSE(pool.Free(a + 8).ok());   // Interior pointer.
  EXPECT_TRUE(pool.Free(a).ok());
  EXPECT_FALSE(pool.Free(a).ok());       // Double free.
}

TEST(PoolAllocatorTest, NeverReleasesPages) {
  TestPages pages;
  PoolAllocator pool("obj", 128, pages);
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 1000; ++i) {
    addrs.push_back(pool.Allocate());
  }
  uint64_t owned = pool.pages_owned();
  for (uint64_t a : addrs) {
    ASSERT_TRUE(pool.Free(a).ok());
  }
  // SLAB_NO_REAP: freeing everything does not shrink the pool.
  EXPECT_EQ(pool.pages_owned(), owned);
  EXPECT_EQ(pool.live_objects(), 0u);
}

TEST(PoolAllocatorTest, ExhaustionReturnsZero) {
  TestPages pages(/*limit_pages=*/1);
  PoolAllocator pool("obj", 1024, pages);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(pool.Allocate(), 0u);
  }
  EXPECT_EQ(pool.Allocate(), 0u);
}

// A provider with a hard page budget that can be raised mid-test, and an
// optional scripted discontinuity, for exercising the multi-page Grow path.
class FlakyPages : public PageProvider {
 public:
  explicit FlakyPages(uint64_t budget) : budget_(budget) {}
  uint64_t AllocatePage() override {
    if (allocated_ >= budget_) {
      return 0;
    }
    ++allocated_;
    uint64_t addr = next_;
    next_ += page_size();
    if (allocated_ == skip_after_) {
      // The next page will not be contiguous with this one.
      next_ += page_size();
    }
    return addr;
  }
  uint64_t page_size() const override { return 4096; }
  uint64_t span() const override { return uint64_t{1} << 30; }
  void set_budget(uint64_t budget) { budget_ = budget; }
  void set_skip_after(uint64_t n) { skip_after_ = n; }
  uint64_t allocated() const { return allocated_; }

 private:
  uint64_t next_ = kFirstPage;
  uint64_t allocated_ = 0;
  uint64_t budget_;
  uint64_t skip_after_ = 0;
};

TEST(PoolAllocatorTest, MultiPageObjectSpansContiguousPages) {
  TestPages pages;
  // 3 pages per object.
  PoolAllocator pool("big", 3 * 4096, pages);
  uint64_t a = pool.Allocate();
  uint64_t b = pool.Allocate();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(b > a ? b - a : a - b, 3 * 4096u);
  EXPECT_EQ(pool.pages_owned(), 6u);
  EXPECT_EQ(pool.stranded_pages(), 0u);
}

TEST(PoolAllocatorTest, MultiPageGrowthFailureDoesNotLeakPages) {
  // Budget allows only 2 of the 3 pages the object needs.
  FlakyPages pages(/*budget=*/2);
  PoolAllocator pool("big", 3 * 4096, pages);
  EXPECT_EQ(pool.Allocate(), 0u);
  EXPECT_EQ(pool.pages_owned(), 2u);
  // The partial run is retained, not leaked: once the provider recovers,
  // the next Grow completes the same run and the object becomes usable.
  EXPECT_EQ(pool.pending_run_pages(), 2u);
  pages.set_budget(3);
  uint64_t a = pool.Allocate();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(pool.pages_owned(), 3u);
  EXPECT_EQ(pool.pending_run_pages(), 0u);
  EXPECT_EQ(pool.stranded_pages(), 0u);
  // All three pages were consumed exactly once.
  EXPECT_EQ(pages.allocated(), 3u);
}

TEST(PoolAllocatorTest, MultiPageGrowthSurvivesDiscontinuity) {
  FlakyPages pages(/*budget=*/100);
  pages.set_skip_after(2);  // Break the run after the second page.
  PoolAllocator pool("big", 3 * 4096, pages);
  uint64_t a = pool.Allocate();
  ASSERT_NE(a, 0u);
  // The 2-page prefix could not back an object and was stranded; the
  // object sits on the post-gap contiguous run.
  EXPECT_EQ(pool.stranded_pages(), 2u);
  EXPECT_EQ(pool.pages_owned(), 5u);
  // The object's pages are contiguous and past the gap.
  EXPECT_EQ(a, 0x100000u + 3 * 4096u);
}

TEST(PoolAllocatorTest, LiveObjectTrackingAndEnumeration) {
  TestPages pages;
  PoolAllocator pool("obj", 32, pages);
  uint64_t a = pool.Allocate();
  uint64_t b = pool.Allocate();
  EXPECT_TRUE(pool.IsLiveObject(a));
  EXPECT_FALSE(pool.IsLiveObject(a + 4));
  auto live = pool.LiveObjects();
  EXPECT_EQ(live.size(), 2u);
  ASSERT_TRUE(pool.Free(b).ok());
  EXPECT_EQ(pool.LiveObjects().size(), 1u);
}

TEST(OrdinaryAllocatorTest, SizeClassRouting) {
  TestPages pages;
  OrdinaryAllocator kmalloc(pages);
  EXPECT_EQ(kmalloc.CacheFor(1)->object_size(), 32u);
  EXPECT_EQ(kmalloc.CacheFor(32)->object_size(), 32u);
  EXPECT_EQ(kmalloc.CacheFor(33)->object_size(), 64u);
  EXPECT_EQ(kmalloc.CacheFor(100)->object_size(), 128u);
  EXPECT_EQ(kmalloc.CacheFor(1 << 20), nullptr);
}

TEST(OrdinaryAllocatorTest, AllocationSizeQuery) {
  TestPages pages;
  OrdinaryAllocator kmalloc(pages);
  uint64_t a = kmalloc.Allocate(100);
  ASSERT_NE(a, 0u);
  // The Section 4.4 size query: usable size is the class size.
  EXPECT_EQ(kmalloc.AllocationSize(a), 128u);
  EXPECT_EQ(kmalloc.AllocationSize(a + 1), 0u);
  ASSERT_TRUE(kmalloc.Free(a).ok());
  EXPECT_EQ(kmalloc.AllocationSize(a), 0u);
  EXPECT_FALSE(kmalloc.Free(a).ok());
}

TEST(OrdinaryAllocatorTest, ExposesKmallocCacheRelationship) {
  TestPages pages;
  OrdinaryAllocator kmalloc(pages);
  // Section 6.2: kmalloc is a collection of caches; the safety compiler
  // merges per cache rather than globally.
  EXPECT_GE(kmalloc.caches().size(), 10u);
  uint64_t a = kmalloc.Allocate(60);
  EXPECT_TRUE(kmalloc.CacheFor(60)->IsLiveObject(a));
}

// Every bad free fails with the code it always had and leaves the live set
// alone: the live bit of the slot starting at the address must be set, so
// interior, double, foreign-pool and out-of-span frees all miss it.
TEST(PoolAllocatorTest, FreeRejectsDoubleInteriorForeignAndOutOfSpan) {
  TestPages pages(/*limit_pages=*/64);
  PoolAllocator pool("obj", 64, pages);
  PoolAllocator other("other", 64, pages);
  uint64_t a = pool.Allocate();
  uint64_t b = other.Allocate();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(pool.Free(a + 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Free(b).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Free(pages.span()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Free(~uint64_t{0} & ~uint64_t{63}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Free(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.live_objects(), 1u);
  EXPECT_TRUE(other.IsLiveObject(b));
  ASSERT_TRUE(pool.Free(a).ok());
  EXPECT_EQ(pool.Free(a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.live_objects(), 0u);
  EXPECT_EQ(other.live_objects(), 1u);
}

TEST(PoolAllocatorTest, MultiPageObjectsFreeOnlyAtTheirStart) {
  TestPages pages;
  PoolAllocator pool("big", 2 * 4096, pages);
  uint64_t a = pool.Allocate();
  ASSERT_NE(a, 0u);
  EXPECT_EQ(pool.Free(a + 4096).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.LiveObjects(), std::vector<uint64_t>{a});
  ASSERT_TRUE(pool.Free(a).ok());
  EXPECT_TRUE(pool.LiveObjects().empty());
}

// Free slots cached in one CPU's magazine are not lost to another CPU when
// the page provider runs out.
TEST(PoolAllocatorTest, ExhaustionTakesSlotsCachedOnOtherCpus) {
  TestPages pages(/*limit_pages=*/1);
  PoolAllocator pool("obj", 1024, pages);
  std::vector<uint64_t> addrs;
  {
    smp::ScopedCpu cpu(0);
    for (int i = 0; i < 4; ++i) {
      addrs.push_back(pool.Allocate());
      ASSERT_NE(addrs.back(), 0u);
    }
    for (uint64_t a : addrs) {
      ASSERT_TRUE(pool.Free(a).ok());
    }
  }
  smp::ScopedCpu cpu(1);
  std::set<uint64_t> again;
  for (int i = 0; i < 4; ++i) {
    uint64_t a = pool.Allocate();
    ASSERT_NE(a, 0u);
    again.insert(a);
  }
  EXPECT_EQ(again, std::set<uint64_t>(addrs.begin(), addrs.end()));
  EXPECT_EQ(pool.Allocate(), 0u);
  EXPECT_EQ(pool.live_objects(), 4u);
}

TEST(OrdinaryAllocatorTest, ClassIndexMatchesTheSmallestFittingClass) {
  TestPages pages;
  OrdinaryAllocator kmalloc(pages);
  EXPECT_EQ(OrdinaryAllocator::ClassIndex(0), 0u);
  EXPECT_EQ(kmalloc.CacheFor(0)->object_size(), 32u);
  for (uint64_t size = 1; size <= kmalloc.largest_class() + 1; ++size) {
    PoolAllocator* fits = nullptr;
    for (const auto& cache : kmalloc.caches()) {
      if (size <= cache->object_size()) {
        fits = cache.get();
        break;
      }
    }
    ASSERT_EQ(kmalloc.CacheFor(size), fits) << size;
  }
  EXPECT_EQ(OrdinaryAllocator::ClassIndex(~uint64_t{0}),
            OrdinaryAllocator::kNumClasses);
}

// The size query and kfree find the class from the page the address is
// on; an address that is not the start of a live object of that class
// gets size 0 and a failed free.
TEST(OrdinaryAllocatorTest, SizeQueryAndFreeRejectBadAddresses) {
  TestPages pages;
  OrdinaryAllocator kmalloc(pages);
  PoolAllocator foreign("foreign", 128, pages);
  uint64_t a = kmalloc.Allocate(100);
  uint64_t b = kmalloc.Allocate(40);
  uint64_t f = foreign.Allocate();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ASSERT_NE(f, 0u);
  EXPECT_EQ(kmalloc.AllocationSize(a), 128u);
  EXPECT_EQ(kmalloc.AllocationSize(b), 64u);
  EXPECT_EQ(kmalloc.AllocationSize(a + 8), 0u);
  EXPECT_EQ(kmalloc.AllocationSize(b + 64), 0u);  // A free slot of b's page.
  EXPECT_EQ(kmalloc.AllocationSize(f), 0u);
  EXPECT_EQ(kmalloc.AllocationSize(pages.span() + 4096), 0u);
  EXPECT_EQ(kmalloc.Free(a + 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kmalloc.Free(f).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kmalloc.Free(pages.span() + 4096).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(foreign.IsLiveObject(f));
  ASSERT_TRUE(kmalloc.Free(a).ok());
  EXPECT_EQ(kmalloc.AllocationSize(a), 0u);
  EXPECT_EQ(kmalloc.Free(a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kmalloc.AllocationSize(b), 64u);
}

// Parameterized sweep over object sizes: allocation/free cycles preserve
// the pool invariants for every size.
class PoolSizeSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolSizeSweepTest, ChurnPreservesInvariants) {
  TestPages pages;
  PoolAllocator pool("sweep", GetParam(), pages);
  std::vector<uint64_t> live;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      uint64_t a = pool.Allocate();
      ASSERT_NE(a, 0u);
      live.push_back(a);
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pool.Free(live.back()).ok());
      live.pop_back();
    }
  }
  EXPECT_EQ(pool.live_objects(), live.size());
  // All live objects are distinct and stride-separated.
  std::set<uint64_t> unique(live.begin(), live.end());
  EXPECT_EQ(unique.size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeSweepTest,
                         ::testing::Values(1u, 8u, 12u, 32u, 96u, 100u, 512u,
                                           4096u));

}  // namespace
}  // namespace sva::runtime
