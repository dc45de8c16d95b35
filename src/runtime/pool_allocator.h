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
#ifndef SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_
#define SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

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
  virtual uint64_t page_size() const = 0;
  // Exclusive upper bound of every page address this provider hands out,
  // or 0 when it promises none. A bound lets a pool over these pages use
  // the slab-indexed metapool registry (slab_registry.h).
  virtual uint64_t span() const { return 0; }
};

// A kmem_cache-style slab pool.
class PoolAllocator {
 public:
  // `object_size` is the declared type size. Objects are laid out at
  // multiples of the slot stride (object_size rounded up to 8), which
  // implements the alignment constraint of Section 4.4.
  PoolAllocator(std::string name, uint64_t object_size, PageProvider& pages);

  const std::string& name() const { return name_; }
  uint64_t object_size() const { return object_size_; }
  uint64_t slot_stride() const { return stride_; }
  const PageProvider& pages() const { return pages_; }

  // Allocates one object; returns 0 on page exhaustion. Thread-safe: the
  // free list and live set are guarded (concurrent Grow() calls into the
  // page provider are serialized per pool by the same lock).
  uint64_t Allocate();
  // Returns the object to the pool's internal free list. The memory stays
  // owned by this pool (never released while the pool lives).
  Status Free(uint64_t addr);
  // True if `addr` is the start of a live object of this pool.
  bool IsLiveObject(uint64_t addr) const {
    std::lock_guard<smp::SpinLock> guard(lock_);
    return live_.count(addr) != 0;
  }

  uint64_t live_objects() const {
    std::lock_guard<smp::SpinLock> guard(lock_);
    return live_.size();
  }
  uint64_t pages_owned() const { return pages_owned_; }
  uint64_t total_allocations() const { return total_allocations_; }
  // Pages consumed from the provider that can never back an object: the
  // abandoned prefixes of multi-page runs broken by a non-contiguous page.
  uint64_t stranded_pages() const { return stranded_pages_; }
  // Pages held in a partially-acquired multi-page run, to be completed by a
  // later Grow() (not leaked, not yet allocatable).
  uint64_t pending_run_pages() const { return run_pages_; }

  // Enumerates the live objects (used when a pool is destroyed: the kernel
  // deregisters all remaining objects from the metapool, Section 4.3).
  std::vector<uint64_t> LiveObjects() const {
    std::lock_guard<smp::SpinLock> guard(lock_);
    return std::vector<uint64_t>(live_.begin(), live_.end());
  }

 private:
  // Requires lock_ held.
  bool Grow();

  mutable smp::SpinLock lock_;
  const std::string name_;
  const uint64_t object_size_;
  uint64_t stride_;
  PageProvider& pages_;
  std::vector<uint64_t> free_list_;
  std::unordered_set<uint64_t> live_;
  uint64_t pages_owned_ = 0;
  uint64_t total_allocations_ = 0;
  // Multi-page (object > page) growth state: the contiguous run being
  // assembled, and pages stranded by broken runs.
  uint64_t run_base_ = 0;
  uint64_t run_pages_ = 0;
  uint64_t stranded_pages_ = 0;
};

// kmalloc: size-class caches over PoolAllocator.
class OrdinaryAllocator {
 public:
  explicit OrdinaryAllocator(PageProvider& pages);

  // Allocates `size` bytes (rounded up to a size class); 0 on exhaustion or
  // for requests beyond the largest class. Thread-safe: the size map is
  // guarded here, the per-class caches by their own locks.
  uint64_t Allocate(uint64_t size);
  Status Free(uint64_t addr);

  // The allocator's size query (Section 4.4): the usable size of the
  // allocation at `addr`, or 0 if `addr` is not a live allocation.
  uint64_t AllocationSize(uint64_t addr) const;

  // The per-size-class caches, exposing the kmalloc/kmem_cache relationship.
  const std::vector<std::unique_ptr<PoolAllocator>>& caches() const {
    return caches_;
  }
  // The cache that would service a request of `size` bytes (nullptr if too
  // large).
  PoolAllocator* CacheFor(uint64_t size) const;

  uint64_t largest_class() const;

 private:
  mutable smp::SpinLock lock_;  // Guards live_sizes_.
  PageProvider& pages_;
  std::vector<std::unique_ptr<PoolAllocator>> caches_;
  std::map<uint64_t, uint64_t> live_sizes_;  // addr -> class size
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_POOL_ALLOCATOR_H_
