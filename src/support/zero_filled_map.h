// Lazily zero-filled anonymous memory, the one mechanism behind every large,
// sparsely touched buffer in the system: guest RAM and the guest disk
// (src/hw/machine.h), and the address-indexed tables of the allocators and
// the slab-indexed metapool registry (src/runtime/atomic_bitmap.h).
//
// Anonymous private memory is zero-filled by the OS on first touch, so such
// a buffer costs resident memory only for the pages somebody actually
// writes, and creating one costs no time proportional to its size.
#ifndef SVA_SRC_SUPPORT_ZERO_FILLED_MAP_H_
#define SVA_SRC_SUPPORT_ZERO_FILLED_MAP_H_

#include <cstddef>

namespace sva {

// `bytes` of zeroed anonymous memory, unmapped on destruction. data() is
// null when `bytes` is 0 or the mapping failed.
class ZeroFilledMap {
 public:
  explicit ZeroFilledMap(size_t bytes);
  ~ZeroFilledMap();
  ZeroFilledMap(const ZeroFilledMap&) = delete;
  ZeroFilledMap& operator=(const ZeroFilledMap&) = delete;

  void* data() const { return data_; }

 private:
  void* data_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace sva

#endif  // SVA_SRC_SUPPORT_ZERO_FILLED_MAP_H_
