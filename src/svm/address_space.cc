#include "src/svm/address_space.h"

#include <cstring>
#include <new>

#include "src/support/strings.h"

namespace sva::svm {

AddressSpace::AddressSpace(uint64_t size_bytes)
    : map_(size_bytes),
      bytes_(static_cast<uint8_t*>(map_.data())),
      size_(size_bytes),
      bump_(kernel_base()),
      pages_(*this) {
  if (size_bytes != 0 && bytes_ == nullptr) {
    throw std::bad_alloc();
  }
}

Status AddressSpace::RangeFault(uint64_t addr) const {
  if (addr < kNullGuard) {
    return SafetyViolation(
        StrCat("hardware fault: null-page access at 0x", std::hex, addr));
  }
  return SafetyViolation(StrCat(
      "hardware fault: access beyond physical memory at 0x", std::hex, addr));
}

Result<double> AddressSpace::ReadF64(uint64_t addr) const {
  SVA_ASSIGN_OR_RETURN(uint64_t bits, Read(addr, 8));
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status AddressSpace::WriteF64(uint64_t addr, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Write(addr, 8, bits);
}

Result<float> AddressSpace::ReadF32(uint64_t addr) const {
  SVA_ASSIGN_OR_RETURN(uint64_t bits, Read(addr, 4));
  uint32_t b32 = static_cast<uint32_t>(bits);
  float v;
  std::memcpy(&v, &b32, sizeof(v));
  return v;
}

Status AddressSpace::WriteF32(uint64_t addr, float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Write(addr, 4, bits);
}

Status AddressSpace::Copy(uint64_t dst, uint64_t src, uint64_t len) {
  SVA_RETURN_IF_ERROR(CheckRange(dst, len));
  SVA_RETURN_IF_ERROR(CheckRange(src, len));
  std::memmove(bytes_ + dst, bytes_ + src, len);
  return OkStatus();
}

Status AddressSpace::Fill(uint64_t addr, uint8_t value, uint64_t len) {
  SVA_RETURN_IF_ERROR(CheckRange(addr, len));
  std::memset(bytes_ + addr, value, len);
  return OkStatus();
}

uint64_t AddressSpace::AllocateRegion(uint64_t size, uint64_t align) {
  uint64_t base = (bump_ + align - 1) / align * align;
  if (base + size > size_ || base + size < base) {
    return 0;
  }
  bump_ = base + size;
  return base;
}

}  // namespace sva::svm
