// The slab-indexed object registry: the metapool registry for a pool whose
// objects all come from one kmem_cache-style PoolAllocator with slots no
// larger than a page (Sections 4.3-4.4).
//
// Such a pool needs no search structure. Its objects start only at
// `page + i * stride` and all have the allocator's object size, so the
// object containing a pointer follows from arithmetic on the pointer
// (page(p) + floor(offset(p) / stride) * stride, the alignment argument of
// Section 7.1.3 optimization 1 applied to the allocator) and the registry
// only has to remember which slots are live: one bit per slot of the
// address span the allocator's page provider covers.
//
// Registration is a fetch_or, a drop a fetch_and, a lookup one acquire
// load. No lock, no tree node, nothing retired through the epoch. The
// bitmap is anonymous memory the OS zeroes on first touch, so only the
// words covering pages the pool actually owns ever become resident.
//
// Soundness of a lookup racing a drop: the lookup may still report the
// object after the drop's fetch_and. The memory it approves stays a slot of
// the same allocator, because slab pages are never released
// (SLAB_NO_REAP). For a type-homogeneous pool (the MPc.* caches) a stale
// hit can therefore only approve an access to an object of the same type.
// For a non-TH pool (the MPk.* kmalloc classes, whose objects all come
// from one size class) it can only approve an access inside a slot of the
// same kmalloc class, which is all a non-TH pool's checks promise: an
// access stays within the pool's objects (docs/CONCURRENCY.md §5).
#ifndef SVA_SRC_RUNTIME_SLAB_REGISTRY_H_
#define SVA_SRC_RUNTIME_SLAB_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/runtime/atomic_bitmap.h"
#include "src/runtime/splay_tree.h"

namespace sva::runtime {

class SlabRegistry {
 public:
  // A registry in which slots of `stride` bytes (the first `object_size` of
  // each are the object) tile each `page_size` page of [0, span). Null
  // unless the page size is a power of two, 0 < object_size <= stride <=
  // page_size and span > 0, or if the bitmap cannot be mapped.
  static std::unique_ptr<SlabRegistry> Create(uint64_t page_size,
                                              uint64_t stride,
                                              uint64_t object_size,
                                              uint64_t span);
  SlabRegistry(const SlabRegistry&) = delete;
  SlabRegistry& operator=(const SlabRegistry&) = delete;

  uint64_t page_size() const { return page_size_; }
  uint64_t stride() const { return stride_; }
  uint64_t object_size() const { return object_size_; }
  uint64_t span() const { return span_; }

  // True if [start, start+size) is exactly one slot's object.
  bool FitsGrid(uint64_t start, uint64_t size) const;
  // Marks the slot at `start` live. False if the range does not fit the
  // grid or the slot is already live.
  bool Register(uint64_t start, uint64_t size);
  // Clears the live slot starting exactly at `start`; nullopt if `start` is
  // not the start of a live slot (double or interior free).
  std::optional<ObjectRange> Drop(uint64_t start);
  // The live object containing `addr`; nullopt outside the span, in a
  // slot's padding past object_size, or on a free slot.
  std::optional<ObjectRange> Lookup(uint64_t addr) const;

 private:
  SlabRegistry(uint64_t page_size, uint64_t stride, uint64_t object_size,
               uint64_t span);

  // The bit index and start of the slot whose object contains `addr`;
  // false when no object can contain it.
  bool SlotOf(uint64_t addr, uint64_t* bit, uint64_t* slot_start) const;
  // The bit of the slot starting exactly at `start`; false if none does.
  bool StartBit(uint64_t start, uint64_t* bit) const;

  const uint64_t page_size_;
  const uint64_t page_shift_;
  const uint64_t stride_;
  const uint64_t object_size_;
  const uint64_t span_;
  const uint64_t slots_per_page_;
  AtomicBitmap live_;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_SLAB_REGISTRY_H_
