#include "src/runtime/slab_registry.h"

#include <bit>

namespace sva::runtime {

std::unique_ptr<SlabRegistry> SlabRegistry::Create(uint64_t page_size,
                                                   uint64_t stride,
                                                   uint64_t object_size,
                                                   uint64_t span) {
  if (!std::has_single_bit(page_size) || object_size == 0 ||
      object_size > stride || stride > page_size || span == 0) {
    return nullptr;
  }
  std::unique_ptr<SlabRegistry> registry(
      new SlabRegistry(page_size, stride, object_size, span));
  if (!registry->live_.ok()) {
    return nullptr;
  }
  return registry;
}

SlabRegistry::SlabRegistry(uint64_t page_size, uint64_t stride,
                           uint64_t object_size, uint64_t span)
    : page_size_(page_size),
      page_shift_(static_cast<uint64_t>(std::countr_zero(page_size))),
      stride_(stride),
      object_size_(object_size),
      span_(span),
      slots_per_page_(page_size / stride),
      live_((span + page_size - 1) / page_size * (page_size / stride)) {}

bool SlabRegistry::SlotOf(uint64_t addr, uint64_t* bit,
                          uint64_t* slot_start) const {
  if (addr >= span_) {
    return false;
  }
  const uint64_t page = addr >> page_shift_;
  const uint64_t offset = addr & (page_size_ - 1);
  const uint64_t slot = offset / stride_;
  // The page tail past the last whole slot and each slot's padding past
  // object_size belong to no object.
  if (slot >= slots_per_page_ || offset - slot * stride_ >= object_size_) {
    return false;
  }
  *bit = page * slots_per_page_ + slot;
  *slot_start = (page << page_shift_) + slot * stride_;
  return true;
}

bool SlabRegistry::StartBit(uint64_t start, uint64_t* bit) const {
  uint64_t slot_start;
  return SlotOf(start, bit, &slot_start) && slot_start == start;
}

bool SlabRegistry::FitsGrid(uint64_t start, uint64_t size) const {
  uint64_t bit;
  return size == object_size_ && StartBit(start, &bit);
}

bool SlabRegistry::Register(uint64_t start, uint64_t size) {
  uint64_t bit;
  if (size != object_size_ || !StartBit(start, &bit)) {
    return false;
  }
  return live_.Set(bit);
}

std::optional<ObjectRange> SlabRegistry::Drop(uint64_t start) {
  uint64_t bit;
  if (!StartBit(start, &bit)) {
    return std::nullopt;
  }
  if (!live_.Clear(bit)) {
    return std::nullopt;
  }
  return ObjectRange{start, object_size_};
}

std::optional<ObjectRange> SlabRegistry::Lookup(uint64_t addr) const {
  uint64_t bit;
  uint64_t slot_start;
  if (!SlotOf(addr, &bit, &slot_start)) {
    return std::nullopt;
  }
  if (!live_.Test(bit)) {
    return std::nullopt;
  }
  return ObjectRange{slot_start, object_size_};
}

}  // namespace sva::runtime
