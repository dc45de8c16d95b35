// The flat virtual address space the SVM translator executes bytecode in.
//
// Layout (all addresses are offsets into one simulated arena; address 0 is
// never mapped, so null dereferences fault):
//
//   [0, 4K)                  : null guard page
//   [4K, user_base)          : reserved
//   [user_base, user_end)    : simulated userspace (Section 4.6 object)
//   [kernel_base, ...)       : globals, stack, and heap regions, laid out
//                              bottom-up by the interpreter at load time
#ifndef SVA_SRC_SVM_ADDRESS_SPACE_H_
#define SVA_SRC_SVM_ADDRESS_SPACE_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/runtime/pool_allocator.h"
#include "src/support/status.h"
#include "src/support/zero_filled_map.h"

namespace sva::svm {

// The arena is lazily zero-filled (src/support/zero_filled_map.h): a VM
// costs host memory only for the pages its bytecode writes, and creating
// one costs no time proportional to its size. Construction throws
// std::bad_alloc when the arena cannot be mapped.
class AddressSpace {
 public:
  static constexpr uint64_t kNullGuard = 4096;
  static constexpr uint64_t kDefaultUserBase = 0x10000;
  static constexpr uint64_t kDefaultUserSize = 0x40000;   // 256 KiB of "user"
  static constexpr uint64_t kPageSize = 4096;

  explicit AddressSpace(uint64_t size_bytes = 32ull << 20);

  uint64_t size() const { return size_; }
  uint64_t user_base() const { return kDefaultUserBase; }
  uint64_t user_size() const { return kDefaultUserSize; }
  uint64_t user_end() const { return user_base() + user_size(); }
  uint64_t kernel_base() const { return user_end(); }

  // Reads/writes an integer of 1/2/4/8 bytes, little-endian. Out-of-arena or
  // null-page accesses fault (simulating a hardware trap). Inline: both
  // execution tiers make one call per guest load and store.
  Result<uint64_t> Read(uint64_t addr, unsigned bytes) const {
    if (!InRange(addr, bytes)) [[unlikely]] {
      return RangeFault(addr);
    }
    uint64_t v = 0;
    CopyWord(&v, bytes_ + addr, bytes);
    return v;
  }
  Status Write(uint64_t addr, unsigned bytes, uint64_t value) {
    if (!InRange(addr, bytes)) [[unlikely]] {
      return RangeFault(addr);
    }
    CopyWord(bytes_ + addr, &value, bytes);
    return OkStatus();
  }
  Result<double> ReadF64(uint64_t addr) const;
  Status WriteF64(uint64_t addr, double value);
  Result<float> ReadF32(uint64_t addr) const;
  Status WriteF32(uint64_t addr, float value);
  Status Copy(uint64_t dst, uint64_t src, uint64_t len);
  Status Fill(uint64_t addr, uint8_t value, uint64_t len);

  // Bump-allocates a region in the kernel area (globals, stack arena, heap
  // arena reservations). Returns 0 on exhaustion.
  uint64_t AllocateRegion(uint64_t size, uint64_t align = 16);

  // A PageProvider view of this address space for the kernel allocators.
  class Pages : public runtime::PageProvider {
   public:
    explicit Pages(AddressSpace& space) : space_(space) {}
    uint64_t AllocatePage() override {
      return space_.AllocateRegion(kPageSize, kPageSize);
    }
    uint64_t page_size() const override { return kPageSize; }
    uint64_t span() const override { return space_.size(); }

   private:
    AddressSpace& space_;
  };

  Pages& pages() { return pages_; }

 private:
  // The guest is little-endian, like every host this builds for, so a
  // value's low `bytes` bytes are its first ones in memory.
  static_assert(std::endian::native == std::endian::little);

  bool InRange(uint64_t addr, uint64_t len) const {
    return addr >= kNullGuard && addr + len <= size_ && addr + len >= addr;
  }
  // The fault an out-of-range access raises (kept out of line).
  [[gnu::noinline, gnu::cold]] Status RangeFault(uint64_t addr) const;
  Status CheckRange(uint64_t addr, uint64_t len) const {
    return InRange(addr, len) ? OkStatus() : RangeFault(addr);
  }
  // Fixed-size copies compile to single moves.
  static void CopyWord(void* dst, const void* src, unsigned bytes) {
    switch (bytes) {
      case 8:
        std::memcpy(dst, src, 8);
        break;
      case 4:
        std::memcpy(dst, src, 4);
        break;
      case 2:
        std::memcpy(dst, src, 2);
        break;
      case 1:
        std::memcpy(dst, src, 1);
        break;
      default:  // Odd widths; a value has no more than 8 bytes.
        std::memcpy(dst, src, bytes < 8 ? bytes : 8);
        break;
    }
  }

  ZeroFilledMap map_;
  uint8_t* bytes_;
  uint64_t size_;
  uint64_t bump_;
  Pages pages_;
};

}  // namespace sva::svm

#endif  // SVA_SRC_SVM_ADDRESS_SPACE_H_
