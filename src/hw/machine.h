// Simulated hardware platform the SVM controls: physical memory, a CPU with
// privilege levels and control/FP state, an MMU with page tables, an
// interrupt/trap vector, and simple devices (console, timer, block).
//
// This stands in for the 800 MHz Pentium III of the paper's evaluation
// (see DESIGN.md §2): SVA-OS (src/svaos) is the only component allowed to
// touch these privileged structures, exactly as the paper requires all
// privileged operations to flow through the SVM.
#ifndef SVA_SRC_HW_MACHINE_H_
#define SVA_SRC_HW_MACHINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/nic.h"
#include "src/support/status.h"
#include "src/support/zero_filled_map.h"

namespace sva::hw {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr unsigned kNumGeneralRegisters = 16;
inline constexpr unsigned kNumFpRegisters = 8;
inline constexpr unsigned kNumVectors = 256;

// Privilege levels (x86 ring style).
enum class Privilege : uint8_t {
  kKernel = 0,
  kUser = 3,
};

// The control state of Section 3.3: program counter, general-purpose
// registers, privilege, and control registers.
struct ControlState {
  uint64_t pc = 0;
  uint64_t sp = 0;
  std::array<uint64_t, kNumGeneralRegisters> regs{};
  Privilege privilege = Privilege::kKernel;
  uint64_t page_table_base = 0;
  bool interrupts_enabled = true;
};

// Floating point state, saved lazily (Table 1).
struct FpState {
  std::array<double, kNumFpRegisters> regs{};
  uint64_t control_word = 0x037F;
};

class Cpu {
 public:
  ControlState& control() { return control_; }
  const ControlState& control() const { return control_; }
  FpState& fp() { return fp_; }
  const FpState& fp() const { return fp_; }

  // Set whenever FP registers are written; llva.save.fp consults this for
  // lazy saving.
  bool fp_dirty() const { return fp_dirty_; }
  void set_fp_dirty(bool dirty) { fp_dirty_ = dirty; }

  void WriteFpRegister(unsigned index, double value) {
    fp_.regs[index % kNumFpRegisters] = value;
    fp_dirty_ = true;
  }

 private:
  ControlState control_;
  FpState fp_;
  bool fp_dirty_ = false;
};

// Page table entry flags.
enum PteFlags : uint32_t {
  kPtePresent = 1 << 0,
  kPteWritable = 1 << 1,
  kPteUser = 1 << 2,
  kPteSvmReserved = 1 << 3,  // Owned by the SVM; unmappable by the kernel.
  kPteCow = 1 << 4,  // Copy-on-write: shared frame, write breaks the share.
};

struct PageTableEntry {
  uint64_t physical_page = 0;
  uint32_t flags = 0;
};

// What a physical frame is used for. The SVA-OS MMU ops consult this table
// at map time to enforce the paper's §4.3 integrity rules (a frame holding
// kernel data or page tables must never become user-accessible).
enum class FrameType : uint8_t {
  kUnused = 0,     // Not declared; mappable for any use.
  kUser = 1,       // User-space data page.
  kKernel = 2,     // Kernel data/code.
  kPageTable = 3,  // Holds translations; writable only by the SVM.
  kSvm = 4,        // SVM-private (metapool metadata, saved state).
  kIo = 5,         // Device MMIO window.
};

const char* FrameTypeName(FrameType type);

// Hierarchical per-address-space page tables. Each address space (asid) is
// a two-level structure: a directory keyed by the top virtual-page bits
// pointing at 512-entry leaf tables (2 MB of address space per leaf) —
// enough walk structure for per-task translation and frame-type mediation
// without modelling the full 4-level x86 radix.
//
// Asid 0 (kKernelAsid) always exists and carries the kernel/SVM mappings;
// the legacy single-address-space API forwards to it. All methods are
// thread-safe behind an internal (unranked, leaf) mutex; callers needing
// multi-op atomicity (e.g. COW remap) serialize at the address-space level.
class Mmu {
 public:
  static constexpr uint32_t kKernelAsid = 0;
  static constexpr size_t kLeafEntries = 512;  // 2 MB per leaf table.

  Mmu();

  // --- Address-space lifecycle ----------------------------------------------
  Result<uint32_t> CreateAddressSpace();
  Status DestroyAddressSpace(uint32_t asid);

  // --- Translation mutation (reached only via SvaOS::Mmu*) ------------------
  // Fails with AlreadyExists if `vaddr` is already mapped in `asid` (the
  // caller unmaps first; there is no silent overwrite).
  Status Map(uint32_t asid, uint64_t vaddr, uint64_t paddr, uint32_t flags);
  Status Unmap(uint32_t asid, uint64_t vaddr);
  // Replaces the flags of an existing mapping, keeping the frame (the COW
  // upgrade/downgrade path). Present is implied.
  Status Protect(uint32_t asid, uint64_t vaddr, uint32_t flags);

  // --- Walks ----------------------------------------------------------------
  Result<uint64_t> Translate(uint32_t asid, uint64_t vaddr, bool write,
                             Privilege privilege) const;
  // Raw PTE fetch (no fault accounting); false if not present.
  bool Lookup(uint32_t asid, uint64_t vaddr, PageTableEntry* out) const;
  bool IsMapped(uint32_t asid, uint64_t vaddr) const;
  // Snapshot of every present mapping in `asid` as (vaddr, pte) pairs.
  std::vector<std::pair<uint64_t, PageTableEntry>> Entries(
      uint32_t asid) const;

  // --- Legacy single-address-space API (kernel asid) ------------------------
  Status Map(uint64_t vaddr, uint64_t paddr, uint32_t flags) {
    return Map(kKernelAsid, vaddr, paddr, flags);
  }
  Status Unmap(uint64_t vaddr) { return Unmap(kKernelAsid, vaddr); }
  Result<uint64_t> Translate(uint64_t vaddr, bool write,
                             Privilege privilege) const {
    return Translate(kKernelAsid, vaddr, write, privilege);
  }
  bool IsMapped(uint64_t vaddr) const { return IsMapped(kKernelAsid, vaddr); }

  // --- Frame-type declarations (§4.3) ---------------------------------------
  void DeclareFrameType(uint64_t paddr, FrameType type);
  FrameType frame_type(uint64_t paddr) const;

  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  struct Leaf {
    std::array<PageTableEntry, kLeafEntries> ptes{};
  };
  struct Space {
    std::map<uint64_t, std::unique_ptr<Leaf>> dir;  // vpage>>9 -> leaf
  };

  // Both require mu_ held. Find returns null when the leaf or PTE is absent.
  PageTableEntry* Find(uint32_t asid, uint64_t vpage);
  const PageTableEntry* Find(uint32_t asid, uint64_t vpage) const;

  mutable std::mutex mu_;  // Unranked leaf: never calls out under it.
  std::map<uint32_t, Space> spaces_;
  std::vector<uint32_t> free_asids_;
  uint32_t next_asid_ = 1;
  std::vector<FrameType> frame_types_;  // Indexed by physical page number.
  mutable std::atomic<uint64_t> faults_{0};
};

// A per-virtual-CPU translation lookaside buffer: direct-mapped, tagged by
// (asid, virtual page). Lookups are the user-copy fast path; misses and
// permission mismatches fall back to the page-fault path, which refills the
// entry. Cross-CPU invalidation (TLB shootdown) goes through
// SvaOS::TlbShootdown, which invalidates every configured CPU's TLB before
// the mutating MMU op returns — the synchronous model of a shootdown IPI
// round with acks.
//
// Lookup takes no lock: each entry is a seqlock (an even/odd sequence plus
// atomic fields), so the owning CPU reads it while a remote CPU may be
// invalidating it. Insert and the Invalidate* family serialize on mu_, which
// only writers take. Once an Invalidate* returns, no Lookup that starts
// later returns the entry it removed.
class Tlb {
 public:
  static constexpr size_t kEntries = 64;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t shootdowns_received = 0;
  };

  // True if a present entry for (asid, vaddr) exists; copies it to `out`.
  // Callers re-check permission bits (write to a read-only or COW entry
  // must take the fault path even on a TLB hit).
  bool Lookup(uint32_t asid, uint64_t vaddr, PageTableEntry* out);
  void Insert(uint32_t asid, uint64_t vaddr, const PageTableEntry& pte);
  void InvalidatePage(uint32_t asid, uint64_t vaddr);
  void InvalidateAsid(uint32_t asid);
  void InvalidateAll();
  // Remote-CPU accounting: the initiator of a shootdown calls this on every
  // other CPU's TLB it invalidated.
  void CountShootdown() {
    shootdowns_.fetch_add(1, std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  // No virtual page number reaches this value (vaddr / kPageSize < 2^52),
  // so an entry holding it matches no lookup.
  static constexpr uint64_t kInvalidVpage = ~uint64_t{0};

  struct Entry {
    std::atomic<uint32_t> seq{0};  // Odd while a writer is mid-update.
    std::atomic<uint32_t> asid{0};
    std::atomic<uint64_t> vpage{kInvalidVpage};
    std::atomic<uint64_t> phys{0};
    std::atomic<uint32_t> flags{0};
  };
  static size_t SlotFor(uint32_t asid, uint64_t vpage) {
    return static_cast<size_t>(vpage ^ asid) % kEntries;
  }
  // Rewrites `e` inside its seqlock write section; mu_ must be held.
  static void Store(Entry& e, uint32_t asid, uint64_t vpage,
                    const PageTableEntry& pte);
  void Invalidate(Entry& e);  // mu_ held.

  std::mutex mu_;  // Writers only (Insert, Invalidate*); unranked leaf.
  std::array<Entry, kEntries> entries_{};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> shootdowns_{0};
  // Bumped by the CPU that owns this TLB; kept off the lines remote
  // invalidations write.
  alignas(64) std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// Guest RAM. Lazily zero-filled (src/support/zero_filled_map.h): a guest
// costs host memory only for the pages it writes. Construction throws
// std::bad_alloc when the memory cannot be mapped, as a failed allocation
// would; a machine never boots on less memory than it asked for.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t bytes);

  uint64_t size() const { return size_; }
  // True if [paddr, paddr + len) lies inside memory.
  bool Contains(uint64_t paddr, uint64_t len) const {
    return paddr <= size_ && len <= size_ - paddr;
  }
  Result<uint64_t> Read(uint64_t paddr, unsigned width) const;
  Status Write(uint64_t paddr, unsigned width, uint64_t value);
  Status Copy(uint64_t dst, uint64_t src, uint64_t len);
  Status Fill(uint64_t addr, uint8_t value, uint64_t len);
  uint8_t* raw(uint64_t paddr) { return bytes_ + paddr; }

 private:
  ZeroFilledMap map_;
  uint8_t* bytes_;
  uint64_t size_;
};

// --- Devices -------------------------------------------------------------------

class ConsoleDevice {
 public:
  void PutChar(char c) { output_.push_back(c); }
  const std::string& output() const { return output_; }
  void Clear() { output_.clear(); }

 private:
  std::string output_;
};

// Programmable interval timer. Two independent faces:
//   - the tick counter (Tick/ticks/microseconds): the guest's uptime clock,
//     advanced by workload-driven IoWrite(kPortTimer) as ever — one tick is
//     the 100µs fiction gettimeofday is built on;
//   - the interrupt line (SetFrequency/SetInterruptCallback/FireInterrupt):
//     a reprogrammable firing rate plus a callback, the hook the sampling
//     profiler hangs off. Firing does NOT advance the tick counter, so
//     reprogramming the rate never skews guest time.
class TimerDevice {
 public:
  static constexpr uint64_t kDefaultFrequencyHz = 10000;  // = 100µs ticks.
  static constexpr uint64_t kMaxFrequencyHz = 1000000;

  void Tick(uint64_t n = 1) {
    ticks_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  // Microseconds-of-uptime fiction for gettimeofday.
  uint64_t microseconds() const { return ticks() * 100; }

  // Reprograms the interrupt rate. Rejects 0 Hz (a stopped clock wedges
  // anything paced by it) and rates past the device's crystal.
  Status SetFrequency(uint64_t hz) {
    if (hz == 0 || hz > kMaxFrequencyHz) {
      return Status(StatusCode::kInvalidArgument,
                    "timer frequency out of range");
    }
    frequency_hz_.store(hz, std::memory_order_relaxed);
    return OkStatus();
  }
  uint64_t frequency_hz() const {
    return frequency_hz_.load(std::memory_order_relaxed);
  }
  uint64_t period_ns() const { return 1000000000ull / frequency_hz(); }

  // Installs (or clears, with nullptr) the interrupt handler.
  void SetInterruptCallback(std::function<void()> cb) {
    std::lock_guard<std::mutex> guard(callback_lock_);
    callback_ = std::move(cb);
  }

  // One edge of the interrupt line: invokes the callback, if any. Called by
  // whatever paces the timer (the profiler's sampler thread, tests).
  void FireInterrupt() {
    interrupts_fired_.fetch_add(1, std::memory_order_relaxed);
    std::function<void()> cb;
    {
      std::lock_guard<std::mutex> guard(callback_lock_);
      cb = callback_;
    }
    if (cb) {
      cb();
    }
  }
  uint64_t interrupts_fired() const {
    return interrupts_fired_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> frequency_hz_{kDefaultFrequencyHz};
  std::atomic<uint64_t> interrupts_fired_{0};
  std::mutex callback_lock_;
  std::function<void()> callback_;
};

class BlockDevice {
 public:
  static constexpr uint64_t kSectorSize = 512;
  // Lazily zero-filled like PhysicalMemory, and throws std::bad_alloc the
  // same way.
  explicit BlockDevice(uint64_t sectors);

  uint64_t num_sectors() const { return sectors_; }
  Status ReadSector(uint64_t sector, uint8_t* out);
  Status WriteSector(uint64_t sector, const uint8_t* in);
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  ZeroFilledMap map_;
  uint8_t* data_;
  uint64_t sectors_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

// The whole platform.
class Machine {
 public:
  explicit Machine(uint64_t memory_bytes = 64ull << 20,
                   uint64_t disk_sectors = 16384)
      : memory_(memory_bytes), disk_(disk_sectors), nic_(memory_) {}

  Cpu& cpu() { return cpu_; }
  Mmu& mmu() { return mmu_; }
  PhysicalMemory& memory() { return memory_; }
  ConsoleDevice& console() { return console_; }
  TimerDevice& timer() { return timer_; }
  BlockDevice& disk() { return disk_; }
  VirtualNic& nic() { return nic_; }

  // I/O port space (Section 3.3: I/O functions are SVA-OS operations).
  enum Port : uint16_t {
    kPortConsole = 0x3F8,
    kPortTimer = 0x40,
    kPortDiskSector = 0x1F0,
    kPortDiskCommand = 0x1F7,
    // NIC register window: kPortNicBase + NicReg (src/hw/nic.h).
    kPortNicBase = 0x300,
  };
  Result<uint64_t> IoRead(uint16_t port);
  Status IoWrite(uint16_t port, uint64_t value);

  // Physical page allocator for kernel boot (bump; pages never move).
  // Returns the physical address of a fresh zeroed page, or 0 if exhausted.
  uint64_t AllocatePhysicalPage();
  uint64_t pages_allocated() const {
    return next_free_page_.load(std::memory_order_relaxed);
  }

 private:
  Cpu cpu_;
  Mmu mmu_;
  PhysicalMemory memory_;
  ConsoleDevice console_;
  TimerDevice timer_;
  BlockDevice disk_;
  VirtualNic nic_;
  // Atomic: the net fast path demand-pages user memory off the big kernel
  // lock, so concurrent first touches may race to allocate.
  std::atomic<uint64_t> next_free_page_{1};  // Page 0 unmapped (null guard).
  uint64_t disk_sector_latch_ = 0;
};

}  // namespace sva::hw

#endif  // SVA_SRC_HW_MACHINE_H_
