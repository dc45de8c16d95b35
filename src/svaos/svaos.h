// SVA-OS: the OS support operations of Section 3.3, Tables 1 and 2. These
// abstract every privileged hardware operation a kernel performs — state
// save/restore, interrupt contexts, MMU configuration, interrupt/syscall
// handler registration, and I/O — so that a ported kernel contains no
// assembly and the SVM mediates all privileged behaviour.
//
// Design choice carried over from the paper: SVA-OS provides *mechanisms
// only*; all policy (scheduling, signal semantics, fd tables) lives in the
// minikernel (src/kernel).
//
// SMP: the per-processor state the paper assumes (interrupt-context stack,
// save/restore buffers, per-processor counters) lives on smp::VirtualCpu;
// SvaOS dispatches against the calling thread's CPU (smp::current_cpu_id).
// CPU 0 is bound to the machine's boot CPU, so a single-CPU configuration
// behaves exactly as the pre-SMP code did.
#ifndef SVA_SRC_SVAOS_SVAOS_H_
#define SVA_SRC_SVAOS_SVAOS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/smp/vcpu.h"
#include "src/support/status.h"

namespace sva::svaos {

// The SVA-OS state types are per-CPU and live with the virtual CPU
// (src/smp/vcpu.h); aliased here so kernel and test code keeps the
// svaos:: spelling.
using SavedIntegerState = smp::SavedIntegerState;
using SavedFpState = smp::SavedFpState;
using PushedCall = smp::PushedCall;
using InterruptContext = smp::InterruptContext;
using SvaOsStats = smp::SvaOsStats;

// Interrupt vector SvaOS::TlbShootdown raises on the initiating CPU to
// model the cross-CPU shootdown IPI round (the NIC owns vector 32).
inline constexpr unsigned kTlbShootdownVector = 33;

// Size of the syscall table: handlers register numbers [0, kNumSyscalls).
inline constexpr uint64_t kNumSyscalls = 128;

struct SyscallArgs {
  std::array<uint64_t, 6> args{};
  InterruptContext* icontext = nullptr;
};

using SyscallHandler = std::function<Result<uint64_t>(const SyscallArgs&)>;
using InterruptHandler = std::function<void(InterruptContext*)>;

class SvaOS {
 public:
  explicit SvaOS(hw::Machine& machine);

  // --- SMP topology ------------------------------------------------------------
  // Brings up `n` virtual CPUs (clamped to [1, smp::kMaxCpus]); call before
  // spawning worker threads. Workers bind with smp::ScopedCpu.
  void ConfigureCpus(unsigned n) { vmp_.Configure(n); }
  unsigned num_cpus() const { return vmp_.num_cpus(); }
  smp::VirtualCpu& current_cpu() { return vmp_.Current(); }
  smp::VirtualCpu& cpu(unsigned id) { return vmp_.cpu(id); }

  // --- Table 1: native state save/restore ------------------------------------
  void SaveIntegerState(SavedIntegerState* buffer);
  Status LoadIntegerState(const SavedIntegerState& buffer);
  // Returns true if state was actually written (lazy when always == false).
  bool SaveFpState(SavedFpState* buffer, bool always);
  Status LoadFpState(const SavedFpState& buffer);

  // --- Table 2: interrupt contexts ---------------------------------------------
  // llva.icontext.save: capture the context as Integer State.
  void IContextSave(const InterruptContext* icp, SavedIntegerState* out);
  // llva.icontext.load: replace the interrupted state.
  Status IContextLoad(InterruptContext* icp, const SavedIntegerState& in);
  // llva.icontext.commit: write the full context to memory.
  void IContextCommit(InterruptContext* icp);
  // llva.ipush.function: make `fn(argument)` run when the context resumes.
  void IPushFunction(InterruptContext* icp, std::function<void(uint64_t)> fn,
                     uint64_t argument);
  // llva.was.privileged.
  bool WasPrivileged(const InterruptContext* icp) const;

  // --- Handler registration -----------------------------------------------------
  // A number at or past kNumSyscalls is InvalidArgument.
  Status RegisterSyscall(uint64_t number, SyscallHandler handler);
  Status RegisterInterrupt(unsigned vector, InterruptHandler handler);
  bool HasSyscall(uint64_t number) const {
    return number < kNumSyscalls && syscalls_[number];
  }

  // --- Dispatch -------------------------------------------------------------------
  // Raises the syscall trap: builds an interrupt context, elevates to
  // kernel privilege, runs the registered handler, runs pushed functions,
  // and restores the interrupted state. This is the kernel entry path the
  // Table 7 microbenchmarks measure.
  Result<uint64_t> Syscall(uint64_t number,
                           const std::array<uint64_t, 6>& args);
  // Raises a hardware interrupt through the registered vector.
  Status RaiseInterrupt(unsigned vector);

  // --- MMU and I/O (privileged operations) -------------------------------------
  // The ONLY translation-mutation path in the system (§4.3): each op
  // validates the request against the declared frame types before touching
  // the page tables. A kernel (or driver) asking for a user-accessible
  // mapping of a kernel, page-table, I/O, or SVM frame gets a
  // SafetyViolation, never a mapping.
  Status MmuMap(uint32_t asid, uint64_t vaddr, uint64_t paddr,
                uint32_t flags);
  Status MmuUnmap(uint32_t asid, uint64_t vaddr);
  // Changes an existing mapping's protection (the COW downgrade/upgrade
  // path), subject to the same frame-type checks as MmuMap.
  Status MmuProtect(uint32_t asid, uint64_t vaddr, uint32_t flags);
  // Declares what a physical frame is used for; checked by every later map.
  Status DeclareFrameType(uint64_t paddr, hw::FrameType type);
  // Address-space lifecycle for per-task page tables.
  Result<uint32_t> CreateAddressSpace();
  Status DestroyAddressSpace(uint32_t asid);
  // Invalidates (asid, vaddr) — or the whole asid when `entire_asid` — in
  // EVERY configured CPU's TLB, then raises kTlbShootdownVector on the
  // initiating CPU if a handler is registered. Synchronous: when it
  // returns, no stale translation survives anywhere (the IPI+ack round).
  Status TlbShootdown(uint32_t asid, uint64_t vaddr, bool entire_asid);

  // Kernel-asid conveniences (the pre-asid API; tests and boot mappings).
  Status MmuMap(uint64_t vaddr, uint64_t paddr, uint32_t flags) {
    return MmuMap(hw::Mmu::kKernelAsid, vaddr, paddr, flags);
  }
  Status MmuUnmap(uint64_t vaddr) {
    return MmuUnmap(hw::Mmu::kKernelAsid, vaddr);
  }
  Status LoadPageTable(uint64_t base);
  // Reserves a page for the SVM itself: the kernel can never map over or
  // unmap it (Section 3.4: SVM memory is invisible to the kernel).
  Status ReserveSvmPage(uint64_t vaddr, uint64_t paddr);

  Result<uint64_t> IoRead(uint16_t port);
  Status IoWrite(uint16_t port, uint64_t value);

  hw::Machine& machine() { return machine_; }
  // Aggregated over all CPUs.
  SvaOsStats stats() const { return vmp_.AggregateStats(); }
  void ResetStats() { vmp_.ResetStats(); }

 private:
  InterruptContext* EnterKernel();
  void ReturnFromInterrupt(InterruptContext* icp);
  // The hardware CPU behind the calling thread's virtual CPU.
  hw::Cpu& cpu_hw() { return vmp_.Current().cpu(); }
  SvaOsStats& cpu_stats() { return vmp_.Current().stats(); }

  hw::Machine& machine_;
  smp::VirtualMultiprocessor vmp_;
  // Both tables are indexed by number; an empty slot is unregistered.
  std::array<SyscallHandler, kNumSyscalls> syscalls_;
  std::array<InterruptHandler, hw::kNumVectors> interrupts_;
};

}  // namespace sva::svaos

#endif  // SVA_SRC_SVAOS_SVAOS_H_
