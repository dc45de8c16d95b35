// The slab-indexed metapool registry: a pool whose objects all come from
// one PoolAllocator with page-sized-or-smaller slots keeps one live bit per
// slot instead of a splay registry. These tests pin that it reports exactly
// what the splay registry would: the same ranges, the same violation kinds
// and the same CheckStats counts.
#include <gtest/gtest.h>

#include "src/runtime/metapool_runtime.h"
#include "src/runtime/pool_allocator.h"
#include "src/runtime/slab_registry.h"

namespace sva::runtime {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kSpan = 64 * kPage;

// Bump pages over [kPage, span), as the machine hands them out.
class SpanPages : public PageProvider {
 public:
  explicit SpanPages(uint64_t span = kSpan) : span_(span) {}
  uint64_t AllocatePage() override {
    if (next_ + kPage > span_) {
      return 0;
    }
    uint64_t page = next_;
    next_ += kPage;
    return page;
  }
  uint64_t page_size() const override { return kPage; }
  uint64_t span() const override { return span_; }

 private:
  const uint64_t span_;
  uint64_t next_ = kPage;
};

// Objects of 36 bytes in 40-byte slots: 4 bytes of padding per slot, and
// 102 slots per page leave a 16-byte page tail.
class SlabPoolTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kObject = 36;

  SlabPoolTest() : cache_("obj", kObject, pages_) {
    pool_ = rt_.CreatePool("MPc.obj", /*type_homogeneous=*/true, kObject,
                           /*complete=*/true);
    EXPECT_TRUE(pool_->UseSlabRegistry(cache_));
  }

  uint64_t AllocRegistered() {
    uint64_t addr = cache_.Allocate();
    EXPECT_NE(addr, 0u);
    EXPECT_TRUE(rt_.RegisterObject(*pool_, addr, kObject).ok());
    return addr;
  }

  void ExpectLastViolation(CheckKind kind, uint64_t address) {
    ASSERT_FALSE(rt_.violations().empty());
    EXPECT_EQ(rt_.violations().back().kind, kind);
    EXPECT_EQ(rt_.violations().back().address, address);
    EXPECT_EQ(rt_.violations().back().pool, "MPc.obj");
  }

  SpanPages pages_;
  PoolAllocator cache_;
  MetaPoolRuntime rt_{EnforcementMode::kTrap};
  MetaPool* pool_ = nullptr;
};

TEST_F(SlabPoolTest, GeometryComesFromTheAllocator) {
  ASSERT_NE(pool_->slab(), nullptr);
  EXPECT_EQ(pool_->slab()->stride(), 40u);
  EXPECT_EQ(pool_->slab()->object_size(), kObject);
  EXPECT_EQ(pool_->slab()->span(), kSpan);
  // The same geometry again keeps the registry.
  PoolAllocator twin("obj2", kObject, pages_);
  EXPECT_TRUE(pool_->UseSlabRegistry(twin));
  // A different one does not replace it.
  PoolAllocator other("obj3", 64, pages_);
  EXPECT_FALSE(pool_->UseSlabRegistry(other));
  EXPECT_EQ(pool_->slab()->stride(), 40u);
}

TEST_F(SlabPoolTest, AlignedRegisterDropThenRegisterAgain) {
  uint64_t obj = AllocRegistered();
  EXPECT_EQ(pool_->live_objects(), 1u);
  ASSERT_TRUE(rt_.DropObject(*pool_, obj).ok());
  EXPECT_EQ(pool_->live_objects(), 0u);
  // The slot is free again: the same start registers cleanly.
  EXPECT_TRUE(rt_.RegisterObject(*pool_, obj, kObject).ok());
  EXPECT_EQ(pool_->live_objects(), 1u);
  EXPECT_TRUE(rt_.violations().empty());
  const CheckStats& stats = rt_.stats();
  EXPECT_EQ(stats.registrations, 2u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.frees_checked, 1u);
  EXPECT_EQ(stats.frees_failed, 0u);
}

TEST_F(SlabPoolTest, DoubleRegistrationIsAViolation) {
  uint64_t obj = AllocRegistered();
  Status s = rt_.RegisterObject(*pool_, obj, kObject);
  EXPECT_EQ(s.code(), StatusCode::kSafetyViolation);
  ExpectLastViolation(CheckKind::kRegistration, obj);
  EXPECT_EQ(pool_->live_objects(), 1u);
}

TEST_F(SlabPoolTest, OffGridRegistrationsAreRejected) {
  uint64_t page = cache_.Allocate() & ~(kPage - 1);
  struct Case {
    const char* what;
    uint64_t start;
    uint64_t size;
  } cases[] = {
      {"misaligned start", page + 40 + 8, kObject},
      {"wrong size (short)", page + 40, kObject - 1},
      {"wrong size (stride)", page + 40, 40},
      {"out of span", kSpan, kObject},
      {"page tail past the last slot", page + 102 * 40, kObject},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Status s = rt_.RegisterObject(*pool_, c.start, c.size);
    EXPECT_EQ(s.code(), StatusCode::kSafetyViolation);
    ExpectLastViolation(CheckKind::kRegistration, c.start);
    EXPECT_NE(rt_.violations().back().detail.find("slab slot grid"),
              std::string::npos);
  }
  EXPECT_EQ(pool_->live_objects(), 0u);
  EXPECT_EQ(rt_.violations().size(), std::size(cases));
}

TEST_F(SlabPoolTest, DoubleAndInteriorDropsAreIllegalFrees) {
  uint64_t obj = AllocRegistered();
  EXPECT_EQ(rt_.DropObject(*pool_, obj + 8).code(),
            StatusCode::kSafetyViolation);
  ExpectLastViolation(CheckKind::kIllegalFree, obj + 8);
  EXPECT_EQ(pool_->live_objects(), 1u);  // The interior free dropped nothing.
  ASSERT_TRUE(rt_.DropObject(*pool_, obj).ok());
  EXPECT_EQ(rt_.DropObject(*pool_, obj).code(), StatusCode::kSafetyViolation);
  ExpectLastViolation(CheckKind::kIllegalFree, obj);
  const CheckStats& stats = rt_.stats();
  EXPECT_EQ(stats.drops, 3u);
  EXPECT_EQ(stats.frees_checked, 3u);
  EXPECT_EQ(stats.frees_failed, 2u);
}

TEST_F(SlabPoolTest, InteriorPointerFindsItsSlot) {
  AllocRegistered();
  uint64_t obj = AllocRegistered();
  std::optional<ObjectRange> range = rt_.GetBounds(*pool_, obj + 20);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->start, obj);
  EXPECT_EQ(range->size, kObject);
  EXPECT_TRUE(rt_.BoundsCheck(*pool_, obj + 4, obj + kObject - 1).ok());
  EXPECT_TRUE(rt_.BoundsCheck(*pool_, obj + kObject - 1, obj).ok());
  EXPECT_TRUE(rt_.LoadStoreCheck(*pool_, obj + 12).ok());
  // One past the object: the overflow the check exists for.
  EXPECT_EQ(rt_.BoundsCheck(*pool_, obj, obj + kObject).code(),
            StatusCode::kSafetyViolation);
  ExpectLastViolation(CheckKind::kBounds, obj + kObject);
  const CheckStats& stats = rt_.stats();
  EXPECT_EQ(stats.bounds_performed, 3u);
  EXPECT_EQ(stats.bounds_failed, 1u);
  EXPECT_EQ(stats.loadstore_performed, 1u);
  // The slab registry searches nothing.
  EXPECT_EQ(stats.splay_comparisons, 0u);
}

TEST_F(SlabPoolTest, StridePaddingAndPageTailFindNothing) {
  uint64_t obj = AllocRegistered();
  for (uint64_t pad = kObject; pad < 40; ++pad) {
    EXPECT_FALSE(rt_.GetBounds(*pool_, obj + pad).has_value()) << pad;
  }
  EXPECT_EQ(rt_.BoundsCheck(*pool_, obj + kObject, obj + kObject).code(),
            StatusCode::kSafetyViolation);
  EXPECT_EQ(rt_.LoadStoreCheck(*pool_, obj + kObject + 1).code(),
            StatusCode::kSafetyViolation);
  uint64_t page = obj & ~(kPage - 1);
  EXPECT_FALSE(rt_.GetBounds(*pool_, page + 102 * 40).has_value());
  EXPECT_FALSE(rt_.GetBounds(*pool_, page + kPage - 1).has_value());
  EXPECT_FALSE(rt_.GetBounds(*pool_, kSpan + 4).has_value());
}

TEST_F(SlabPoolTest, FreedSlotIsNotABoundsSource) {
  uint64_t obj = AllocRegistered();
  ASSERT_TRUE(rt_.BoundsCheck(*pool_, obj, obj + 1).ok());
  ASSERT_TRUE(rt_.DropObject(*pool_, obj).ok());
  EXPECT_EQ(rt_.BoundsCheck(*pool_, obj, obj + 1).code(),
            StatusCode::kSafetyViolation);
  ExpectLastViolation(CheckKind::kBounds, obj + 1);
  EXPECT_FALSE(rt_.GetBounds(*pool_, obj + 8).has_value());
  EXPECT_FALSE(pool_->LookupStart(obj).has_value());
}

TEST_F(SlabPoolTest, LookupStartNeedsTheExactStart) {
  uint64_t obj = AllocRegistered();
  ASSERT_TRUE(pool_->LookupStart(obj).has_value());
  EXPECT_FALSE(pool_->LookupStart(obj + 8).has_value());
}

TEST(SlabRegistryTest, PoolsThatDoNotFitKeepTheSplayRegistry) {
  MetaPoolRuntime rt;
  SpanPages bounded;
  // Slots larger than a page.
  PoolAllocator big("big", 5000, bounded);
  EXPECT_FALSE(rt.CreatePool("big", true, 5000, true)->UseSlabRegistry(big));
  // A pool that already holds tree objects.
  PoolAllocator fits("fits", 64, bounded);
  MetaPool* used = rt.CreatePool("used", true, 64, true);
  ASSERT_TRUE(rt.RegisterObject(*used, 0x9000, 64).ok());
  EXPECT_FALSE(used->UseSlabRegistry(fits));
  EXPECT_EQ(used->slab(), nullptr);
  // A whole-page slot qualifies.
  PoolAllocator page("page", kPage, bounded);
  EXPECT_TRUE(rt.CreatePool("page", true, kPage, true)->UseSlabRegistry(page));
}

TEST(SlabRegistryTest, RecordModeReportsAndContinues) {
  MetaPoolRuntime rt(EnforcementMode::kRecord);
  SpanPages pages;
  PoolAllocator cache("obj", 64, pages);
  MetaPool* pool = rt.CreatePool("MPc.obj", true, 64, true);
  ASSERT_TRUE(pool->UseSlabRegistry(cache));
  uint64_t obj = cache.Allocate();
  ASSERT_TRUE(rt.RegisterObject(*pool, obj, 64).ok());
  EXPECT_TRUE(rt.DropObject(*pool, obj).ok());
  EXPECT_TRUE(rt.DropObject(*pool, obj).ok());  // Recorded, not trapped.
  ASSERT_EQ(rt.violations().size(), 1u);
  EXPECT_EQ(rt.violations()[0].kind, CheckKind::kIllegalFree);
}

}  // namespace
}  // namespace sva::runtime
