#include "src/runtime/pool_allocator.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "src/support/strings.h"

namespace sva::runtime {

namespace {
constexpr uint64_t kMinStride = 8;

uint64_t PagesIn(const PageProvider& pages) {
  return (pages.span() + pages.page_size() - 1) / pages.page_size();
}
}  // namespace

PageOwners::PageOwners(const PageProvider& pages)
    : page_shift_(static_cast<uint64_t>(std::countr_zero(pages.page_size()))),
      tags_(static_cast<size_t>(PagesIn(pages))),
      pages_(tags_.data() == nullptr ? 0 : PagesIn(pages)) {}

void PageOwners::Publish(uint64_t page, uint8_t tag) {
  const uint64_t index = page >> page_shift_;
  if (index < pages_) {
    std::atomic_ref<uint8_t>(static_cast<uint8_t*>(tags_.data())[index])
        .store(tag, std::memory_order_release);
  }
}

uint8_t PageOwners::OwnerOf(uint64_t addr) const {
  const uint64_t index = addr >> page_shift_;
  if (index >= pages_) {
    return 0;
  }
  return std::atomic_ref<uint8_t>(static_cast<uint8_t*>(tags_.data())[index])
      .load(std::memory_order_acquire);
}

PoolAllocator::PoolAllocator(std::string name, uint64_t object_size,
                             PageProvider& pages, PageOwners* owners,
                             uint8_t owner_tag)
    : name_(std::move(name)),
      object_size_(object_size == 0 ? 1 : object_size),
      stride_((object_size_ + kMinStride - 1) / kMinStride * kMinStride),
      pages_(pages),
      page_shift_(static_cast<uint64_t>(std::countr_zero(pages.page_size()))),
      slots_per_page_(std::max<uint64_t>(1, pages.page_size() / stride_)),
      magazine_limit_(static_cast<uint32_t>(
          std::min<uint64_t>(kMagazineSlots, slots_per_page_))),
      batch_((magazine_limit_ + 1) / 2),
      owners_(owners),
      owner_tag_(owner_tag),
      live_(PagesIn(pages) * slots_per_page_),
      span_pages_(live_.ok() ? PagesIn(pages) : 0) {}

bool PoolAllocator::BitOf(uint64_t addr, uint64_t* bit) const {
  const uint64_t page = addr >> page_shift_;
  const uint64_t offset = addr & ((uint64_t{1} << page_shift_) - 1);
  // A multi-page object's only slot is offset 0 of its first page.
  const uint64_t slot = offset / stride_;
  if (page >= span_pages_ || offset != slot * stride_ ||
      slot >= slots_per_page_) {
    return false;
  }
  *bit = page * slots_per_page_ + slot;
  return true;
}

uint64_t PoolAllocator::NextPage() {
  const uint64_t page = pages_.AllocatePage();
  if (page == 0 || (page >> page_shift_) >= span_pages_) {
    return 0;
  }
  ++pages_owned_;
  if (owners_ != nullptr) {
    owners_->Publish(page, owner_tag_);
  }
  return page;
}

bool PoolAllocator::Grow() {
  uint64_t page_size = pages_.page_size();
  uint64_t count = page_size / stride_;
  if (count > 0) {
    uint64_t page = NextPage();
    if (page == 0) {
      return false;
    }
    slabs_.push_back(page);
    for (uint64_t i = 0; i < count; ++i) {
      depot_.push_back(page + i * stride_);
    }
    return true;
  }
  // Object larger than a page: the object needs `needed` physically
  // contiguous pages. The provider makes no contiguity promise, so verify
  // each follow-on page actually extends the run. A run interrupted by
  // allocation failure is kept in run_base_/run_pages_ and resumed by the
  // next Grow() instead of being leaked (the pages stay counted in
  // pages_owned_ until the run completes and reaches the depot).
  uint64_t needed = (stride_ + page_size - 1) / page_size;
  uint64_t attempts = 0;
  const uint64_t max_attempts = needed * 4;
  while (run_pages_ < needed) {
    if (++attempts > max_attempts) {
      // Pathologically fragmented provider: give up for this call rather
      // than consuming pages without bound. The current run is retained.
      return false;
    }
    uint64_t next = NextPage();
    if (next == 0) {
      return false;
    }
    if (run_pages_ == 0) {
      run_base_ = next;
      run_pages_ = 1;
    } else if (next == run_base_ + run_pages_ * page_size) {
      ++run_pages_;
    } else {
      // Non-contiguous: the accumulated prefix cannot back one object.
      // Those pages stay owned by the pool (SLAB_NO_REAP — they are never
      // returned to the provider) but are unusable for allocation.
      stranded_pages_ += run_pages_;
      run_base_ = next;
      run_pages_ = 1;
    }
  }
  slabs_.push_back(run_base_);
  depot_.push_back(run_base_);
  run_base_ = 0;
  run_pages_ = 0;
  return true;
}

void PoolAllocator::Refill(Magazine& mag) {
  std::lock_guard<smp::SpinLock> guard(lock_);
  if (depot_.empty() && !Grow()) {
    return;
  }
  const size_t n = std::min<size_t>(depot_.size(), batch_);
  std::copy(depot_.end() - static_cast<ptrdiff_t>(n), depot_.end(),
            mag.slots.begin());
  mag.count = static_cast<uint32_t>(n);
  depot_.resize(depot_.size() - n);
}

void PoolAllocator::Spill(Magazine& mag) {
  // The oldest half goes to the depot; the most recently freed (cache-hot)
  // slots stay for this CPU's next allocations.
  {
    std::lock_guard<smp::SpinLock> guard(lock_);
    depot_.insert(depot_.end(), mag.slots.begin(),
                  mag.slots.begin() + batch_);
  }
  std::copy(mag.slots.begin() + batch_, mag.slots.begin() + mag.count,
            mag.slots.begin());
  mag.count -= batch_;
}

uint64_t PoolAllocator::Scavenge() {
  {
    std::lock_guard<smp::SpinLock> guard(lock_);
    if (!depot_.empty()) {
      uint64_t addr = depot_.back();
      depot_.pop_back();
      return addr;
    }
  }
  // The provider is out, but other CPUs' magazines may still cache free
  // slots. One magazine lock at a time, and never with lock_ held.
  uint64_t addr = 0;
  magazines_.ForEachMutable([&addr](Magazine& mag) {
    if (addr != 0) {
      return;
    }
    std::lock_guard<smp::SpinLock> guard(mag.lock);
    if (mag.count != 0) {
      addr = mag.slots[--mag.count];
    }
  });
  return addr;
}

uint64_t PoolAllocator::Allocate() {
  uint64_t addr = 0;
  {
    Magazine& mag = magazines_.Current();
    std::lock_guard<smp::SpinLock> guard(mag.lock);
    if (mag.count == 0) {
      Refill(mag);
    }
    if (mag.count != 0) {
      addr = mag.slots[--mag.count];
    }
  }
  if (addr == 0 && (addr = Scavenge()) == 0) {
    return 0;
  }
  uint64_t bit = 0;
  BitOf(addr, &bit);
  live_.Set(bit);
  allocations_.Add();
  return addr;
}

Status PoolAllocator::Free(uint64_t addr) {
  uint64_t bit;
  if (!BitOf(addr, &bit) || !live_.Clear(bit)) {
    return InvalidArgument(StrCat("pool ", name_, ": free of 0x", std::hex,
                                  addr, " which is not a live object"));
  }
  frees_.Add();
  // Reuse stays within this pool: the address goes back to one of our own
  // magazines and is never handed to another pool (SLAB_NO_REAP).
  Magazine& mag = magazines_.Current();
  std::lock_guard<smp::SpinLock> guard(mag.lock);
  if (mag.count == magazine_limit_) {
    Spill(mag);
  }
  mag.slots[mag.count++] = addr;
  return OkStatus();
}

uint64_t PoolAllocator::live_objects() const {
  // Frees first: a free counted here had its allocation counted earlier.
  const uint64_t frees = frees_.value();
  const uint64_t allocations = allocations_.value();
  return allocations > frees ? allocations - frees : 0;
}

std::vector<uint64_t> PoolAllocator::LiveObjects() const {
  std::lock_guard<smp::SpinLock> guard(lock_);
  std::vector<uint64_t> live;
  for (uint64_t slab : slabs_) {
    for (uint64_t i = 0; i < slots_per_page_; ++i) {
      if (IsLiveObject(slab + i * stride_)) {
        live.push_back(slab + i * stride_);
      }
    }
  }
  return live;
}

OrdinaryAllocator::OrdinaryAllocator(PageProvider& pages) : owners_(pages) {
  // Linux-style geometric size classes; a page's owner tag is its class
  // index + 1.
  for (size_t i = 0; i < kNumClasses; ++i) {
    const uint64_t size = uint64_t{1} << (kSmallestClassShift + i);
    caches_.push_back(std::make_unique<PoolAllocator>(
        StrCat("kmalloc-", size), size, pages, &owners_,
        static_cast<uint8_t>(i + 1)));
  }
}

size_t OrdinaryAllocator::ClassIndex(uint64_t size) {
  if (size <= (uint64_t{1} << kSmallestClassShift)) {
    return 0;
  }
  // bit_width(size - 1) = ceil(log2(size)) for size >= 2.
  const size_t shift = static_cast<size_t>(std::bit_width(size - 1));
  return std::min(shift - kSmallestClassShift, kNumClasses);
}

PoolAllocator* OrdinaryAllocator::CacheFor(uint64_t size) const {
  const size_t index = ClassIndex(size);
  return index < kNumClasses ? caches_[index].get() : nullptr;
}

PoolAllocator* OrdinaryAllocator::CacheOwning(uint64_t addr) const {
  const uint8_t tag = owners_.OwnerOf(addr);
  return tag == 0 ? nullptr : caches_[tag - 1].get();
}

uint64_t OrdinaryAllocator::largest_class() const {
  return caches_.back()->object_size();
}

uint64_t OrdinaryAllocator::Allocate(uint64_t size) {
  PoolAllocator* cache = CacheFor(size);
  return cache == nullptr ? 0 : cache->Allocate();
}

Status OrdinaryAllocator::Free(uint64_t addr) {
  PoolAllocator* cache = CacheOwning(addr);
  if (cache == nullptr) {
    return InvalidArgument(
        StrCat("kmalloc: free of unknown address 0x", std::hex, addr));
  }
  return cache->Free(addr);
}

uint64_t OrdinaryAllocator::AllocationSize(uint64_t addr) const {
  PoolAllocator* cache = CacheOwning(addr);
  return cache != nullptr && cache->IsLiveObject(addr) ? cache->object_size()
                                                       : 0;
}

}  // namespace sva::runtime
