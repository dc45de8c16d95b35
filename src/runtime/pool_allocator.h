// Kernel-style allocators with the SVA porting contract of Section 4.4:
//
//  * PoolAllocator models Linux's kmem_cache: one object size per pool,
//    objects aligned at the type size so dangling pointers cannot cause
//    type misalignment, and pages never released to other pools while the
//    pool lives (the SLAB_NO_REAP change of Section 6.2).
//  * OrdinaryAllocator models kmalloc as a collection of size-class caches,
//    exposing the kmalloc -> kmem_cache relationship so the safety compiler
//    can merge per-cache instead of globally (Section 6.2).
//
// Both report allocation sizes, fulfilling the "size query" requirement the
// compiler relies on to emit pchk.reg.obj with correct lengths.
//
// Neither takes a shared lock or searches a structure on the alloc/free
// fast path (Linux's per-CPU array caches, Bonwick's magazines):
//
//  * A pool's live set is one atomic bit per slot, indexed by address over
//    the page provider's span (atomic_bitmap.h). Free is one fetch_and that
//    must find the bit set, so double, interior and foreign frees fail.
//  * A pool's free slots sit in per-CPU magazines, each under its own
//    spinlock, at most a page's worth each. An empty magazine refills
//    from, and a full one spills half to, the pool's shared depot under
//    the pool lock; only that slow path grows the pool. Lock order:
//    magazine lock, then pool lock (docs/CONCURRENCY.md).
//  * kmalloc finds the class of an address from one byte per page
//    (PageOwners), published when the class's Grow takes the page. Pages
//    are never reaped, so the byte never changes once set.
#ifndef SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_
#define SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/atomic_bitmap.h"
#include "src/smp/percpu.h"
#include "src/smp/sync.h"
#include "src/support/status.h"

namespace sva::runtime {

// Supplies fixed-size pages of abstract address space to allocators. The
// minikernel backs this with simulated physical memory; the SVM interpreter
// backs it with its virtual address space.
class PageProvider {
 public:
  virtual ~PageProvider() = default;
  // Returns the base address of a fresh page, or 0 when exhausted.
  virtual uint64_t AllocatePage() = 0;
  // A power of two; every page address is a multiple of it.
  virtual uint64_t page_size() const = 0;
  // Exclusive upper bound of every page address this provider hands out.
  // The allocators' live bitmaps and page-owner tables, and the slab-indexed
  // metapool registry (slab_registry.h), are indexed over [0, span).
  virtual uint64_t span() const = 0;
};

// Which pool owns each page of a provider's span: one byte per page, 0 for
// none, in lazily zero-filled memory. A pool publishes its tag when Grow
// takes a page; pages are never reaped, so a published tag never changes.
class PageOwners {
 public:
  explicit PageOwners(const PageProvider& pages);

  void Publish(uint64_t page, uint8_t tag);
  // The tag of the page containing `addr`; 0 outside the span.
  uint8_t OwnerOf(uint64_t addr) const;

 private:
  const uint64_t page_shift_;
  ZeroFilledMap tags_;
  const uint64_t pages_;  // 0 if tags_ could not be mapped.
};

// A kmem_cache-style slab pool.
class PoolAllocator {
 public:
  // `object_size` is the declared type size. Objects are laid out at
  // multiples of the slot stride (object_size rounded up to 8), which
  // implements the alignment constraint of Section 4.4. A non-null
  // `owners` gets `owner_tag` published for every page the pool takes.
  PoolAllocator(std::string name, uint64_t object_size, PageProvider& pages,
                PageOwners* owners = nullptr, uint8_t owner_tag = 0);

  const std::string& name() const { return name_; }
  uint64_t object_size() const { return object_size_; }
  uint64_t slot_stride() const { return stride_; }
  const PageProvider& pages() const { return pages_; }

  // Allocates one object; returns 0 on page exhaustion. Thread-safe; takes
  // only the calling CPU's magazine lock unless the magazine is empty.
  uint64_t Allocate();
  // Returns the object to the calling CPU's magazine. The memory stays
  // owned by this pool (never released while the pool lives). Fails for
  // any address that is not the start of a live object of this pool.
  Status Free(uint64_t addr);
  // True if `addr` is the start of a live object of this pool.
  bool IsLiveObject(uint64_t addr) const {
    uint64_t bit;
    return BitOf(addr, &bit) && live_.Test(bit);
  }

  // Exact at quiescence; a racing read may lag concurrent calls.
  uint64_t live_objects() const;
  uint64_t total_allocations() const { return allocations_.value(); }
  uint64_t pages_owned() const { return pages_owned_; }
  // Pages consumed from the provider that can never back an object: the
  // abandoned prefixes of multi-page runs broken by a non-contiguous page.
  uint64_t stranded_pages() const { return stranded_pages_; }
  // Pages held in a partially-acquired multi-page run, to be completed by a
  // later Grow() (not leaked, not yet allocatable).
  uint64_t pending_run_pages() const { return run_pages_; }

  // Enumerates the live objects (used when a pool is destroyed: the kernel
  // deregisters all remaining objects from the metapool, Section 4.3).
  std::vector<uint64_t> LiveObjects() const;

 private:
  static constexpr uint32_t kMagazineSlots = 32;

  struct Magazine {
    smp::SpinLock lock;
    uint32_t count = 0;
    std::array<uint64_t, kMagazineSlots> slots{};
  };

  // The live bit of the slot starting exactly at `addr`; false if no slot
  // of this pool's geometry starts there.
  bool BitOf(uint64_t addr, uint64_t* bit) const;
  // Require lock_ held. NextPage returns 0 when the provider is out or
  // breaks its span promise.
  bool Grow();
  uint64_t NextPage();
  // Require `mag.lock` held; take lock_.
  void Refill(Magazine& mag);
  void Spill(Magazine& mag);
  // Exhaustion path: a free slot from the depot or any CPU's magazine.
  uint64_t Scavenge();

  const std::string name_;
  const uint64_t object_size_;
  const uint64_t stride_;
  PageProvider& pages_;
  const uint64_t page_shift_;
  // Slots per page, or 1 for an object spanning several pages (whose slot
  // is its first page).
  const uint64_t slots_per_page_;
  // Slots a magazine holds: up to one page's worth, at least one object
  // and at most kMagazineSlots, so a CPU parks little memory of a pool
  // with large objects. Refill and spill move half of it, rounded up.
  const uint32_t magazine_limit_;
  const uint32_t batch_;
  PageOwners* const owners_;
  const uint8_t owner_tag_;
  AtomicBitmap live_;
  // Pages of the span the live bitmap covers; 0 if it could not be mapped,
  // which leaves the pool permanently out of memory.
  const uint64_t span_pages_;
  smp::PerCpu<Magazine> magazines_;
  smp::ShardedCounter allocations_;
  smp::ShardedCounter frees_;

  mutable smp::SpinLock lock_;  // Guards everything below.
  std::vector<uint64_t> depot_;
  // First page of every slab (stride <= page) or object run (stride > page)
  // this pool owns, for LiveObjects().
  std::vector<uint64_t> slabs_;
  uint64_t pages_owned_ = 0;
  // Multi-page (object > page) growth state: the contiguous run being
  // assembled, and pages stranded by broken runs.
  uint64_t run_base_ = 0;
  uint64_t run_pages_ = 0;
  uint64_t stranded_pages_ = 0;
};

// kmalloc: power-of-two size-class caches over PoolAllocator.
class OrdinaryAllocator {
 public:
  static constexpr uint64_t kSmallestClassShift = 5;  // kmalloc-32
  static constexpr size_t kNumClasses = 13;           // ... kmalloc-131072

  explicit OrdinaryAllocator(PageProvider& pages);

  // Allocates `size` bytes (rounded up to a size class); 0 on exhaustion or
  // for requests beyond the largest class. Thread-safe.
  uint64_t Allocate(uint64_t size);
  Status Free(uint64_t addr);

  // The allocator's size query (Section 4.4): the usable size of the
  // allocation at `addr`, or 0 if `addr` is not a live allocation.
  uint64_t AllocationSize(uint64_t addr) const;

  // The per-size-class caches, exposing the kmalloc/kmem_cache relationship.
  const std::vector<std::unique_ptr<PoolAllocator>>& caches() const {
    return caches_;
  }
  // The index into caches() of the class that services `size` bytes, from
  // the size's log2; kNumClasses if the size is too large.
  static size_t ClassIndex(uint64_t size);
  // The cache that would service a request of `size` bytes (nullptr if too
  // large).
  PoolAllocator* CacheFor(uint64_t size) const;

  uint64_t largest_class() const;

 private:
  // The class whose pool owns the page of `addr`, or nullptr.
  PoolAllocator* CacheOwning(uint64_t addr) const;

  PageOwners owners_;  // Tag = class index + 1.
  std::vector<std::unique_ptr<PoolAllocator>> caches_;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_
