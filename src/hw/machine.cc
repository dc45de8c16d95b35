#include "src/hw/machine.h"

#include <cstring>
#include <new>

#include "src/support/strings.h"

namespace sva::hw {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kUnused: return "unused";
    case FrameType::kUser: return "user";
    case FrameType::kKernel: return "kernel";
    case FrameType::kPageTable: return "page-table";
    case FrameType::kSvm: return "svm";
    case FrameType::kIo: return "io";
  }
  return "unknown";
}

Mmu::Mmu() {
  spaces_[kKernelAsid];  // The kernel address space always exists.
}

Result<uint32_t> Mmu::CreateAddressSpace() {
  std::lock_guard<std::mutex> guard(mu_);
  uint32_t asid;
  if (!free_asids_.empty()) {
    asid = free_asids_.back();
    free_asids_.pop_back();
  } else {
    asid = next_asid_++;
  }
  spaces_[asid];
  return asid;
}

Status Mmu::DestroyAddressSpace(uint32_t asid) {
  if (asid == kKernelAsid) {
    return FailedPrecondition("mmu: cannot destroy the kernel address space");
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto it = spaces_.find(asid);
  if (it == spaces_.end()) {
    return NotFound(StrCat("mmu: no address space ", asid));
  }
  spaces_.erase(it);
  free_asids_.push_back(asid);
  return OkStatus();
}

PageTableEntry* Mmu::Find(uint32_t asid, uint64_t vpage) {
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return nullptr;
  }
  auto leaf = space->second.dir.find(vpage / kLeafEntries);
  if (leaf == space->second.dir.end()) {
    return nullptr;
  }
  return &leaf->second->ptes[vpage % kLeafEntries];
}

const PageTableEntry* Mmu::Find(uint32_t asid, uint64_t vpage) const {
  return const_cast<Mmu*>(this)->Find(asid, vpage);
}

Status Mmu::Map(uint32_t asid, uint64_t vaddr, uint64_t paddr,
                uint32_t flags) {
  if (vaddr % kPageSize != 0 || paddr % kPageSize != 0) {
    return InvalidArgument("mmu: unaligned mapping");
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return NotFound(StrCat("mmu: no address space ", asid));
  }
  const uint64_t vpage = vaddr / kPageSize;
  std::unique_ptr<Leaf>& leaf = space->second.dir[vpage / kLeafEntries];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
  }
  PageTableEntry& pte = leaf->ptes[vpage % kLeafEntries];
  if ((pte.flags & kPteSvmReserved) != 0) {
    return FailedPrecondition(
        "mmu: attempt to remap an SVM-reserved page");
  }
  if ((pte.flags & kPtePresent) != 0) {
    return AlreadyExists(
        StrCat("mmu: double map of 0x", std::hex, vaddr));
  }
  pte.physical_page = paddr / kPageSize;
  pte.flags = flags | kPtePresent;
  return OkStatus();
}

Status Mmu::Unmap(uint32_t asid, uint64_t vaddr) {
  std::lock_guard<std::mutex> guard(mu_);
  PageTableEntry* pte = Find(asid, vaddr / kPageSize);
  if (pte == nullptr || (pte->flags & kPtePresent) == 0) {
    return NotFound("mmu: unmap of unmapped page");
  }
  if ((pte->flags & kPteSvmReserved) != 0) {
    return FailedPrecondition("mmu: attempt to unmap an SVM-reserved page");
  }
  *pte = PageTableEntry{};
  return OkStatus();
}

Status Mmu::Protect(uint32_t asid, uint64_t vaddr, uint32_t flags) {
  std::lock_guard<std::mutex> guard(mu_);
  PageTableEntry* pte = Find(asid, vaddr / kPageSize);
  if (pte == nullptr || (pte->flags & kPtePresent) == 0) {
    return NotFound("mmu: protect of unmapped page");
  }
  if ((pte->flags & kPteSvmReserved) != 0) {
    return FailedPrecondition(
        "mmu: attempt to reprotect an SVM-reserved page");
  }
  pte->flags = flags | kPtePresent;
  return OkStatus();
}

Result<uint64_t> Mmu::Translate(uint32_t asid, uint64_t vaddr, bool write,
                                Privilege privilege) const {
  std::lock_guard<std::mutex> guard(mu_);
  const PageTableEntry* found = Find(asid, vaddr / kPageSize);
  if (found == nullptr || (found->flags & kPtePresent) == 0) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return SafetyViolation(StrCat("page fault at 0x", std::hex, vaddr));
  }
  const PageTableEntry& pte = *found;
  if (privilege == Privilege::kUser && (pte.flags & kPteUser) == 0) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return SafetyViolation(
        StrCat("protection fault: user access to kernel page 0x", std::hex,
               vaddr));
  }
  if (privilege != Privilege::kKernel &&
      (pte.flags & kPteSvmReserved) != 0) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return SafetyViolation("protection fault: access to SVM page");
  }
  if (write && ((pte.flags & kPteWritable) == 0 ||
                (pte.flags & kPteCow) != 0)) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return SafetyViolation(
        StrCat("write to read-only page 0x", std::hex, vaddr));
  }
  return pte.physical_page * kPageSize + vaddr % kPageSize;
}

bool Mmu::Lookup(uint32_t asid, uint64_t vaddr, PageTableEntry* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  const PageTableEntry* pte = Find(asid, vaddr / kPageSize);
  if (pte == nullptr || (pte->flags & kPtePresent) == 0) {
    return false;
  }
  *out = *pte;
  return true;
}

bool Mmu::IsMapped(uint32_t asid, uint64_t vaddr) const {
  PageTableEntry pte;
  return Lookup(asid, vaddr, &pte);
}

std::vector<std::pair<uint64_t, PageTableEntry>> Mmu::Entries(
    uint32_t asid) const {
  std::vector<std::pair<uint64_t, PageTableEntry>> out;
  std::lock_guard<std::mutex> guard(mu_);
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return out;
  }
  for (const auto& [top, leaf] : space->second.dir) {
    for (size_t i = 0; i < kLeafEntries; ++i) {
      const PageTableEntry& pte = leaf->ptes[i];
      if ((pte.flags & kPtePresent) != 0) {
        out.emplace_back((top * kLeafEntries + i) * kPageSize, pte);
      }
    }
  }
  return out;
}

void Mmu::DeclareFrameType(uint64_t paddr, FrameType type) {
  const uint64_t pfn = paddr / kPageSize;
  std::lock_guard<std::mutex> guard(mu_);
  if (frame_types_.size() <= pfn) {
    frame_types_.resize(pfn + 1, FrameType::kUnused);
  }
  frame_types_[pfn] = type;
}

FrameType Mmu::frame_type(uint64_t paddr) const {
  const uint64_t pfn = paddr / kPageSize;
  std::lock_guard<std::mutex> guard(mu_);
  return pfn < frame_types_.size() ? frame_types_[pfn] : FrameType::kUnused;
}

// Seqlock protocol. A writer (under mu_) makes seq odd, stores the fields
// with release, and makes seq even again with release. A reader loads seq
// with acquire, the fields with acquire, and seq again: the acquire field
// loads keep the re-check after them, and a field value written by a later
// writer carries that writer's odd store with it, so a torn read always
// shows as a changed or odd seq and is retried.
bool Tlb::Lookup(uint32_t asid, uint64_t vaddr, PageTableEntry* out) {
  const uint64_t vpage = vaddr / kPageSize;
  const Entry& e = entries_[SlotFor(asid, vpage)];
  uint32_t seq;
  bool match;
  PageTableEntry pte;
  do {
    seq = e.seq.load(std::memory_order_acquire);
    match = e.asid.load(std::memory_order_acquire) == asid &&
            e.vpage.load(std::memory_order_acquire) == vpage;
    pte.physical_page = e.phys.load(std::memory_order_acquire);
    pte.flags = e.flags.load(std::memory_order_acquire);
  } while ((seq & 1) != 0 || e.seq.load(std::memory_order_relaxed) != seq);
  if (match) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    *out = pte;
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Tlb::Store(Entry& e, uint32_t asid, uint64_t vpage,
                const PageTableEntry& pte) {
  const uint32_t seq = e.seq.load(std::memory_order_relaxed);
  e.seq.store(seq + 1, std::memory_order_relaxed);
  e.asid.store(asid, std::memory_order_release);
  e.vpage.store(vpage, std::memory_order_release);
  e.phys.store(pte.physical_page, std::memory_order_release);
  e.flags.store(pte.flags, std::memory_order_release);
  e.seq.store(seq + 2, std::memory_order_release);
}

void Tlb::Invalidate(Entry& e) {
  Store(e, 0, kInvalidVpage, PageTableEntry{});
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void Tlb::Insert(uint32_t asid, uint64_t vaddr, const PageTableEntry& pte) {
  const uint64_t vpage = vaddr / kPageSize;
  std::lock_guard<std::mutex> guard(mu_);
  Store(entries_[SlotFor(asid, vpage)], asid, vpage, pte);
}

void Tlb::InvalidatePage(uint32_t asid, uint64_t vaddr) {
  const uint64_t vpage = vaddr / kPageSize;
  std::lock_guard<std::mutex> guard(mu_);
  Entry& e = entries_[SlotFor(asid, vpage)];
  if (e.asid.load(std::memory_order_relaxed) == asid &&
      e.vpage.load(std::memory_order_relaxed) == vpage) {
    Invalidate(e);
  }
}

void Tlb::InvalidateAsid(uint32_t asid) {
  std::lock_guard<std::mutex> guard(mu_);
  for (Entry& e : entries_) {
    if (e.vpage.load(std::memory_order_relaxed) != kInvalidVpage &&
        e.asid.load(std::memory_order_relaxed) == asid) {
      Invalidate(e);
    }
  }
}

void Tlb::InvalidateAll() {
  std::lock_guard<std::mutex> guard(mu_);
  for (Entry& e : entries_) {
    if (e.vpage.load(std::memory_order_relaxed) != kInvalidVpage) {
      Invalidate(e);
    }
  }
}

Tlb::Stats Tlb::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.shootdowns_received = shootdowns_.load(std::memory_order_relaxed);
  return s;
}

PhysicalMemory::PhysicalMemory(uint64_t bytes)
    : map_(bytes), bytes_(static_cast<uint8_t*>(map_.data())), size_(bytes) {
  if (bytes != 0 && bytes_ == nullptr) {
    throw std::bad_alloc();
  }
}

Result<uint64_t> PhysicalMemory::Read(uint64_t paddr, unsigned width) const {
  if (!Contains(paddr, width)) {
    return OutOfRange(StrCat("physical read beyond memory at 0x", std::hex,
                             paddr));
  }
  uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(bytes_[paddr + i]) << (8 * i);
  }
  return v;
}

Status PhysicalMemory::Write(uint64_t paddr, unsigned width, uint64_t value) {
  if (!Contains(paddr, width)) {
    return OutOfRange(StrCat("physical write beyond memory at 0x", std::hex,
                             paddr));
  }
  for (unsigned i = 0; i < width; ++i) {
    bytes_[paddr + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return OkStatus();
}

Status PhysicalMemory::Copy(uint64_t dst, uint64_t src, uint64_t len) {
  if (!Contains(dst, len) || !Contains(src, len)) {
    return OutOfRange("physical copy beyond memory");
  }
  std::memmove(bytes_ + dst, bytes_ + src, len);
  return OkStatus();
}

Status PhysicalMemory::Fill(uint64_t addr, uint8_t value, uint64_t len) {
  if (!Contains(addr, len)) {
    return OutOfRange("physical fill beyond memory");
  }
  std::memset(bytes_ + addr, value, len);
  return OkStatus();
}

BlockDevice::BlockDevice(uint64_t sectors)
    : map_(sectors * kSectorSize),
      data_(static_cast<uint8_t*>(map_.data())),
      sectors_(sectors) {
  if (sectors != 0 && data_ == nullptr) {
    throw std::bad_alloc();
  }
}

Status BlockDevice::ReadSector(uint64_t sector, uint8_t* out) {
  if (sector >= num_sectors()) {
    return OutOfRange(StrCat("disk read beyond device: sector ", sector));
  }
  std::memcpy(out, data_ + sector * kSectorSize, kSectorSize);
  ++reads_;
  return OkStatus();
}

Status BlockDevice::WriteSector(uint64_t sector, const uint8_t* in) {
  if (sector >= num_sectors()) {
    return OutOfRange(StrCat("disk write beyond device: sector ", sector));
  }
  std::memcpy(data_ + sector * kSectorSize, in, kSectorSize);
  ++writes_;
  return OkStatus();
}

Result<uint64_t> Machine::IoRead(uint16_t port) {
  if (port >= kPortNicBase && port < kPortNicBase + kNicRegCount) {
    return nic_.RegRead(static_cast<uint16_t>(port - kPortNicBase));
  }
  switch (port) {
    case kPortTimer:
      return timer_.ticks();
    case kPortDiskSector:
      return disk_sector_latch_;
    default:
      return NotFound(StrCat("io read from unknown port 0x", std::hex, port));
  }
}

Status Machine::IoWrite(uint16_t port, uint64_t value) {
  if (port >= kPortNicBase && port < kPortNicBase + kNicRegCount) {
    return nic_.RegWrite(static_cast<uint16_t>(port - kPortNicBase), value);
  }
  switch (port) {
    case kPortConsole:
      console_.PutChar(static_cast<char>(value));
      return OkStatus();
    case kPortTimer:
      timer_.Tick(value);
      return OkStatus();
    case kPortDiskSector:
      disk_sector_latch_ = value;
      return OkStatus();
    default:
      return NotFound(StrCat("io write to unknown port 0x", std::hex, port));
  }
}

uint64_t Machine::AllocatePhysicalPage() {
  uint64_t page = next_free_page_.fetch_add(1, std::memory_order_relaxed);
  if ((page + 1) * kPageSize > memory_.size()) {
    // Exhausted; the bump pointer stays past the end and every subsequent
    // allocation keeps failing (pages never return to this allocator).
    return 0;
  }
  uint64_t addr = page * kPageSize;
  (void)memory_.Fill(addr, 0, kPageSize);
  return addr;
}

}  // namespace sva::hw
