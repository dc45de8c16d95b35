// Address-indexed tables in lazily zero-filled memory, shared by the
// allocators (pool_allocator.h) and the slab-indexed metapool registry
// (slab_registry.h).
//
// A table indexed by page or slot over a page provider's whole span is
// large in address space but sparse in use; a ZeroFilledMap
// (src/support/zero_filled_map.h) costs resident memory only for the parts
// that cover pages somebody actually owns.
#ifndef SVA_SRC_RUNTIME_ATOMIC_BITMAP_H_
#define SVA_SRC_RUNTIME_ATOMIC_BITMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/support/zero_filled_map.h"

namespace sva::runtime {

// A fixed-size bitmap whose bits are set, cleared and read with one atomic
// operation each. All bits start clear; callers keep indexes in range.
class AtomicBitmap {
 public:
  explicit AtomicBitmap(uint64_t bits)
      : map_(static_cast<size_t>((bits + 63) / 64 * 8)) {}

  // False if the backing memory could not be mapped (every operation on
  // such a bitmap is undefined; check once after construction).
  bool ok() const { return map_.data() != nullptr; }

  // Sets `bit`; true if it was clear before.
  bool Set(uint64_t bit) {
    return (Word(bit).fetch_or(Mask(bit), std::memory_order_acq_rel) &
            Mask(bit)) == 0;
  }
  // Clears `bit`; true if it was set before.
  bool Clear(uint64_t bit) {
    return (Word(bit).fetch_and(~Mask(bit), std::memory_order_acq_rel) &
            Mask(bit)) != 0;
  }
  bool Test(uint64_t bit) const {
    return (Word(bit).load(std::memory_order_acquire) & Mask(bit)) != 0;
  }

 private:
  std::atomic_ref<uint64_t> Word(uint64_t bit) const {
    return std::atomic_ref<uint64_t>(
        static_cast<uint64_t*>(map_.data())[bit / 64]);
  }
  static uint64_t Mask(uint64_t bit) { return uint64_t{1} << (bit % 64); }

  ZeroFilledMap map_;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_ATOMIC_BITMAP_H_
