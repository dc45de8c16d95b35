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

#include <cstdint>

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
  // null-page accesses fault (simulating a hardware trap).
  Result<uint64_t> Read(uint64_t addr, unsigned bytes) const;
  Status Write(uint64_t addr, unsigned bytes, uint64_t value);
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
  Status CheckRange(uint64_t addr, uint64_t len) const;

  ZeroFilledMap map_;
  uint8_t* bytes_;
  uint64_t size_;
  uint64_t bump_;
  Pages pages_;
};

}  // namespace sva::svm

#endif  // SVA_SRC_SVM_ADDRESS_SPACE_H_
