#include "src/mm/vm.h"

#include <utility>
#include <vector>

#include "src/support/strings.h"
#include "src/trace/trace.h"

namespace sva::mm {

namespace {

inline uint64_t PageBase(uint64_t vaddr) {
  return vaddr & ~(hw::kPageSize - 1);
}

// PTEs store the frame as a page number; the allocator and PhysicalMemory
// speak byte addresses.
inline uint64_t FrameAddr(const hw::PageTableEntry& pte) {
  return pte.physical_page * hw::kPageSize;
}

// A TLB entry satisfies an access iff present and, for writes, writable and
// not COW-shared. Anything else takes the fault path.
inline bool PermitsAccess(const hw::PageTableEntry& pte, bool write) {
  if ((pte.flags & hw::kPtePresent) == 0) {
    return false;
  }
  return !write || ((pte.flags & hw::kPteWritable) != 0 &&
                    (pte.flags & hw::kPteCow) == 0);
}

}  // namespace

Status VmManager::Init() {
  // The shootdown IPI: remote invalidation already happened synchronously in
  // SvaOS::TlbShootdown (the model's "ack"); the handler is the observable
  // interrupt-path delivery.
  return os_.RegisterInterrupt(
      svaos::kTlbShootdownVector, [this](svaos::InterruptContext*) {
        shootdown_ipis_.fetch_add(1, std::memory_order_relaxed);
      });
}

Result<std::unique_ptr<AddressSpace>> VmManager::CreateAddressSpace(
    uint64_t base, uint64_t initial_pages, uint64_t max_pages) {
  if (base % hw::kPageSize != 0) {
    return InvalidArgument("vm: unaligned address-space base");
  }
  if (initial_pages > max_pages) {
    return InvalidArgument("vm: initial pages exceed max pages");
  }
  SVA_ASSIGN_OR_RETURN(uint32_t asid, os_.CreateAddressSpace());
  return std::unique_ptr<AddressSpace>(
      new AddressSpace(asid, base, initial_pages, max_pages));
}

Status VmManager::Destroy(AddressSpace& as) {
  {
    std::lock_guard<smp::OrderedSpinLock> guard(as.lock_);
    auto entries = os_.machine().mmu().Entries(as.asid_);
    for (const auto& [vaddr, pte] : entries) {
      SVA_RETURN_IF_ERROR(os_.MmuUnmap(as.asid_, vaddr));
      frames_.Release(FrameAddr(pte));
    }
    SVA_RETURN_IF_ERROR(os_.TlbShootdown(as.asid_, 0, /*entire_asid=*/true));
    as.resident_pages_.store(0, std::memory_order_relaxed);
  }
  return os_.DestroyAddressSpace(as.asid_);
}

Result<uint64_t> VmManager::Resolve(AddressSpace& as, uint64_t vaddr,
                                    bool write) {
  hw::PageTableEntry pte;
  if (os_.current_cpu().tlb().Lookup(as.asid_, vaddr, &pte) &&
      PermitsAccess(pte, write)) {
    return FrameAddr(pte) + (vaddr & (hw::kPageSize - 1));
  }
  return FaultIn(as, vaddr, write);
}

Result<uint64_t> VmManager::FaultIn(AddressSpace& as, uint64_t vaddr,
                                    bool write) {
  trace::Span span(trace::EventId::kPageFault, trace::HistId::kPageFaultNs,
                   vaddr, write ? 1 : 0);
  page_faults_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t page = PageBase(vaddr);
  const uint64_t offset = vaddr & (hw::kPageSize - 1);
  std::lock_guard<smp::OrderedSpinLock> guard(as.lock_);

  hw::Mmu& mmu = os_.machine().mmu();
  hw::PageTableEntry pte;
  if (mmu.Lookup(as.asid_, page, &pte)) {
    if (write && (pte.flags & hw::kPteCow) != 0) {
      // COW break. Refcounts count mappings and this space's own COW entry
      // can only be retired under as.lock_ (held), so rc == 1 means sole
      // owner: upgrade in place. A stale rc > 1 read only costs an extra
      // copy, never a lost write.
      cow_faults_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t shared_frame = FrameAddr(pte);
      const uint32_t new_flags =
          (pte.flags & ~hw::kPteCow) | hw::kPteWritable;
      if (frames_.RefCount(shared_frame) <= 1) {
        SVA_RETURN_IF_ERROR(os_.MmuProtect(as.asid_, page, new_flags));
      } else {
        SVA_ASSIGN_OR_RETURN(uint64_t copy,
                             frames_.Allocate(hw::FrameType::kUser));
        SVA_RETURN_IF_ERROR(os_.machine().memory().Copy(
            copy, shared_frame, hw::kPageSize));
        SVA_RETURN_IF_ERROR(os_.MmuUnmap(as.asid_, page));
        SVA_RETURN_IF_ERROR(os_.MmuMap(as.asid_, page, copy, new_flags));
        frames_.Release(shared_frame);
        cow_copies_.fetch_add(1, std::memory_order_relaxed);
      }
      SVA_RETURN_IF_ERROR(
          os_.TlbShootdown(as.asid_, page, /*entire_asid=*/false));
      (void)mmu.Lookup(as.asid_, page, &pte);
      os_.current_cpu().tlb().Insert(as.asid_, page, pte);
      return FrameAddr(pte) + offset;
    }
    if (write && (pte.flags & hw::kPteWritable) == 0) {
      return SafetyViolation(
          StrCat("write to read-only page 0x", std::hex, page));
    }
    // Read (or already-writable) TLB miss: refill.
    os_.current_cpu().tlb().Insert(as.asid_, page, pte);
    return FrameAddr(pte) + offset;
  }

  // Not mapped: zero-fill demand paging inside the brk frontier, fault
  // outside it.
  const uint64_t limit =
      as.base_ + as.page_limit_.load(std::memory_order_relaxed) *
                     hw::kPageSize;
  if (vaddr < as.base_ || vaddr >= limit) {
    return SafetyViolation(StrCat("bad user address 0x", std::hex, vaddr));
  }
  demand_fills_.fetch_add(1, std::memory_order_relaxed);
  SVA_ASSIGN_OR_RETURN(uint64_t frame,
                       frames_.Allocate(hw::FrameType::kUser));
  SVA_RETURN_IF_ERROR(
      os_.MmuMap(as.asid_, page, frame,
                 hw::kPtePresent | hw::kPteWritable | hw::kPteUser));
  as.resident_pages_.fetch_add(1, std::memory_order_relaxed);
  pte.physical_page = frame / hw::kPageSize;
  pte.flags = hw::kPtePresent | hw::kPteWritable | hw::kPteUser;
  os_.current_cpu().tlb().Insert(as.asid_, page, pte);
  return frame + offset;
}

Status VmManager::ExtendLimit(AddressSpace& as, uint64_t new_limit_pages) {
  if (new_limit_pages > as.max_pages_) {
    return Status(StatusCode::kResourceExhausted,
                  "vm: address space limit exceeds its hard cap");
  }
  // Monotonic raise; concurrent brk calls race benignly.
  uint64_t cur = as.page_limit_.load(std::memory_order_relaxed);
  while (cur < new_limit_pages &&
         !as.page_limit_.compare_exchange_weak(cur, new_limit_pages,
                                               std::memory_order_relaxed)) {
  }
  return OkStatus();
}

Status VmManager::CloneCow(AddressSpace& parent, AddressSpace& child) {
  struct Shared {
    uint64_t offset;  // vaddr - parent base
    uint64_t paddr;
    uint32_t flags;
  };
  std::vector<Shared> shared;
  // Phase 1 — under the PARENT lock only: downgrade every writable mapping
  // to read-only COW, take a reference for the child, and shoot down stale
  // writable TLB entries before any CPU can write through them.
  {
    std::lock_guard<smp::OrderedSpinLock> guard(parent.lock_);
    auto entries = os_.machine().mmu().Entries(parent.asid_);
    shared.reserve(entries.size());
    for (const auto& [vaddr, pte] : entries) {
      uint32_t flags = (pte.flags & ~hw::kPteWritable) | hw::kPteCow;
      if (flags != pte.flags) {
        SVA_RETURN_IF_ERROR(os_.MmuProtect(parent.asid_, vaddr, flags));
      }
      frames_.AddRef(FrameAddr(pte));
      shared.push_back({vaddr - parent.base_, FrameAddr(pte), flags});
    }
    SVA_RETURN_IF_ERROR(
        os_.TlbShootdown(parent.asid_, 0, /*entire_asid=*/true));
  }
  // Phase 2 — under the CHILD lock (sequential, same rank forbids nesting):
  // map the shared frames at the child's base.
  {
    std::lock_guard<smp::OrderedSpinLock> guard(child.lock_);
    for (const Shared& s : shared) {
      SVA_RETURN_IF_ERROR(
          os_.MmuMap(child.asid_, child.base_ + s.offset, s.paddr, s.flags));
    }
    child.resident_pages_.store(shared.size(), std::memory_order_relaxed);
  }
  child.page_limit_.store(parent.page_limit_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  forks_cow_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status VmManager::CloneEager(AddressSpace& parent, AddressSpace& child) {
  struct Copied {
    uint64_t offset;
    uint64_t paddr;
    uint32_t flags;
  };
  std::vector<Copied> copies;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(parent.lock_);
    auto entries = os_.machine().mmu().Entries(parent.asid_);
    copies.reserve(entries.size());
    // A failure partway (out of frames) gives back every frame taken so far.
    auto release_copies = [&] {
      for (const Copied& c : copies) {
        frames_.Release(c.paddr);
      }
    };
    for (const auto& [vaddr, pte] : entries) {
      Result<uint64_t> frame = frames_.Allocate(hw::FrameType::kUser);
      if (!frame.ok()) {
        release_copies();
        return frame.status();
      }
      // The copy is private, so it is born writable even if the source was
      // COW-shared.
      copies.push_back({vaddr - parent.base_, *frame,
                        (pte.flags & ~hw::kPteCow) | hw::kPteWritable});
      Status copied =
          os_.machine().memory().Copy(*frame, FrameAddr(pte), hw::kPageSize);
      if (!copied.ok()) {
        release_copies();
        return copied;
      }
    }
  }
  {
    std::lock_guard<smp::OrderedSpinLock> guard(child.lock_);
    for (const Copied& c : copies) {
      SVA_RETURN_IF_ERROR(
          os_.MmuMap(child.asid_, child.base_ + c.offset, c.paddr, c.flags));
    }
    child.resident_pages_.store(copies.size(), std::memory_order_relaxed);
  }
  child.page_limit_.store(parent.page_limit_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  forks_eager_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status VmManager::Reset(AddressSpace& as, uint64_t initial_pages) {
  std::lock_guard<smp::OrderedSpinLock> guard(as.lock_);
  auto entries = os_.machine().mmu().Entries(as.asid_);
  for (const auto& [vaddr, pte] : entries) {
    SVA_RETURN_IF_ERROR(os_.MmuUnmap(as.asid_, vaddr));
    frames_.Release(FrameAddr(pte));
  }
  SVA_RETURN_IF_ERROR(os_.TlbShootdown(as.asid_, 0, /*entire_asid=*/true));
  as.resident_pages_.store(0, std::memory_order_relaxed);
  as.page_limit_.store(initial_pages, std::memory_order_relaxed);
  return OkStatus();
}

VmStats VmManager::stats() const {
  VmStats s;
  s.page_faults = page_faults_.load(std::memory_order_relaxed);
  s.demand_fills = demand_fills_.load(std::memory_order_relaxed);
  s.cow_faults = cow_faults_.load(std::memory_order_relaxed);
  s.cow_copies = cow_copies_.load(std::memory_order_relaxed);
  s.forks_cow = forks_cow_.load(std::memory_order_relaxed);
  s.forks_eager = forks_eager_.load(std::memory_order_relaxed);
  s.shootdown_ipis = shootdown_ipis_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sva::mm
