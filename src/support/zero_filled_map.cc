#include "src/support/zero_filled_map.h"

#include <sys/mman.h>

namespace sva {

ZeroFilledMap::ZeroFilledMap(size_t bytes) {
  if (bytes == 0) {
    return;
  }
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (data != MAP_FAILED) {
    data_ = data;
    bytes_ = bytes;
  }
}

ZeroFilledMap::~ZeroFilledMap() {
  if (data_ != nullptr) {
    munmap(data_, bytes_);
  }
}

}  // namespace sva
