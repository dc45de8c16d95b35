#include "src/svaos/svaos.h"

#include "src/support/strings.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"

namespace sva::svaos {

SvaOS::SvaOS(hw::Machine& machine)
    : machine_(machine), vmp_(machine.cpu()) {}

// --- Table 1 ---------------------------------------------------------------------

void SvaOS::SaveIntegerState(SavedIntegerState* buffer) {
  ++cpu_stats().save_integer;
  trace::Emit(trace::EventId::kSaveInteger,
              reinterpret_cast<uint64_t>(buffer));
  buffer->control = cpu_hw().control();
  buffer->valid = true;
}

Status SvaOS::LoadIntegerState(const SavedIntegerState& buffer) {
  if (!buffer.valid) {
    return FailedPrecondition(
        "llva.load.integer: buffer never saved");
  }
  ++cpu_stats().load_integer;
  trace::Emit(trace::EventId::kLoadInteger,
              reinterpret_cast<uint64_t>(&buffer));
  cpu_hw().control() = buffer.control;
  return OkStatus();
}

bool SvaOS::SaveFpState(SavedFpState* buffer, bool always) {
  hw::Cpu& cpu = cpu_hw();
  if (!always && !cpu.fp_dirty()) {
    ++cpu_stats().save_fp_skipped;
    return false;  // Lazy save: FP untouched since the last load.
  }
  ++cpu_stats().save_fp;
  buffer->fp = cpu.fp();
  buffer->valid = true;
  cpu.set_fp_dirty(false);
  return true;
}

Status SvaOS::LoadFpState(const SavedFpState& buffer) {
  if (!buffer.valid) {
    return FailedPrecondition("llva.load.fp: buffer never saved");
  }
  ++cpu_stats().load_fp;
  cpu_hw().fp() = buffer.fp;
  cpu_hw().set_fp_dirty(false);
  return OkStatus();
}

// --- Table 2 ---------------------------------------------------------------------

void SvaOS::IContextSave(const InterruptContext* icp, SavedIntegerState* out) {
  out->control = icp->interrupted_;
  out->valid = true;
}

Status SvaOS::IContextLoad(InterruptContext* icp,
                           const SavedIntegerState& in) {
  if (!in.valid) {
    return FailedPrecondition("llva.icontext.load: buffer never saved");
  }
  icp->interrupted_ = in.control;
  return OkStatus();
}

void SvaOS::IContextCommit(InterruptContext* icp) {
  // In hardware this writes the remaining shadow-register state to memory;
  // in the simulation the context is already memory-resident, so commit is
  // a flag plus accounting.
  icp->committed_ = true;
  ++cpu_stats().icontext_committed;
}

void SvaOS::IPushFunction(InterruptContext* icp,
                          std::function<void(uint64_t)> fn,
                          uint64_t argument) {
  ++cpu_stats().ipush_function;
  icp->pushed_.push_back(PushedCall{std::move(fn), argument});
}

bool SvaOS::WasPrivileged(const InterruptContext* icp) const {
  return icp->from_privileged_;
}

// --- Registration -----------------------------------------------------------------

Status SvaOS::RegisterSyscall(uint64_t number, SyscallHandler handler) {
  if (number >= kNumSyscalls) {
    return InvalidArgument(StrCat("bad system call number ", number));
  }
  syscalls_[number] = std::move(handler);
  return OkStatus();
}

Status SvaOS::RegisterInterrupt(unsigned vector, InterruptHandler handler) {
  if (vector >= hw::kNumVectors) {
    return InvalidArgument(StrCat("bad interrupt vector ", vector));
  }
  interrupts_[vector] = std::move(handler);
  return OkStatus();
}

// --- Dispatch ---------------------------------------------------------------------

InterruptContext* SvaOS::EnterKernel() {
  trace::Emit(trace::EventId::kKernelEntry);
  smp::VirtualCpu& vcpu = vmp_.Current();
  ++vcpu.stats().icontext_created;
  InterruptContext* icp = vcpu.PushContext(vcpu.NextContextId());
  hw::Cpu& cpu = vcpu.cpu();
  icp->interrupted_ = cpu.control();
  icp->from_privileged_ = cpu.control().privilege == hw::Privilege::kKernel;
  cpu.control().privilege = hw::Privilege::kKernel;
  return icp;
}

void SvaOS::ReturnFromInterrupt(InterruptContext* icp) {
  // Run the functions pushed by llva.ipush.function (signal dispatch) in
  // push order before resuming the interrupted computation.
  for (PushedCall& call : icp->pushed_) {
    call.fn(call.argument);
  }
  icp->pushed_.clear();
  smp::VirtualCpu& vcpu = vmp_.Current();
  vcpu.cpu().control() = icp->interrupted_;
  // Pop the context (it must be the innermost one on this CPU).
  vcpu.PopContext(icp);
  trace::Emit(trace::EventId::kKernelExit);
}

Result<uint64_t> SvaOS::Syscall(uint64_t number,
                                const std::array<uint64_t, 6>& args) {
  if (!HasSyscall(number)) {
    return NotFound(StrCat("unregistered system call ", number));
  }
  trace::Span span(trace::EventId::kSvaosDispatch,
                   trace::HistId::kSvaosDispatchNs, number);
  // Publish the SVA-OS entry to the sampling profiler: ticks landing here
  // (state save, icontext bookkeeping, dispatch) attribute to the SVM's
  // mediation cost, not the syscall body (which pushes its own context).
  trace::ProfContextScope prof;
  if (trace::prof_enabled()) {
    static const uint32_t kDispatchNameId =
        trace::InternProfName("svaos:dispatch");
    prof.Enter(trace::ProfContext::kSvaOsOp, kDispatchNameId, 0, 1);
  }
  ++cpu_stats().syscalls_dispatched;
  InterruptContext* icp = EnterKernel();
  SyscallArgs call;
  call.args = args;
  call.icontext = icp;
  Result<uint64_t> result = syscalls_[number](call);
  ReturnFromInterrupt(icp);
  return result;
}

Status SvaOS::RaiseInterrupt(unsigned vector) {
  if (vector >= hw::kNumVectors || !interrupts_[vector]) {
    return NotFound(StrCat("unregistered interrupt vector ", vector));
  }
  trace::Span span(trace::EventId::kInterrupt, trace::HistId::kIrqNs,
                   vector);
  // Vector 32 is the NIC rx line (net-irq context for the profiler);
  // everything else (TLB shootdown IPIs, ...) is SVA-OS work.
  trace::ProfContextScope prof;
  if (trace::prof_enabled()) {
    static const uint32_t kNetIrqNameId =
        trace::InternProfName("net:rx-irq");
    static const uint32_t kIrqNameId = trace::InternProfName("svaos:irq");
    if (vector == 32) {
      prof.Enter(trace::ProfContext::kNetIrq, kNetIrqNameId, 0, 1);
    } else {
      prof.Enter(trace::ProfContext::kSvaOsOp, kIrqNameId, 0, 1);
    }
  }
  ++cpu_stats().interrupts_dispatched;
  InterruptContext* icp = EnterKernel();
  interrupts_[vector](icp);
  ReturnFromInterrupt(icp);
  return OkStatus();
}

// --- MMU / IO ---------------------------------------------------------------------

namespace {

// The §4.3 map-time integrity rules over declared frame types. Returns a
// SafetyViolation for any request that would let the kernel (or a driver)
// subvert translation integrity; OkStatus for everything else.
Status CheckMappingAgainstFrameType(hw::FrameType type, uint64_t paddr,
                                    uint32_t flags) {
  switch (type) {
    case hw::FrameType::kUnused:
    case hw::FrameType::kUser:
      return OkStatus();
    case hw::FrameType::kKernel:
    case hw::FrameType::kIo:
      if ((flags & hw::kPteUser) != 0) {
        return SafetyViolation(
            StrCat("mmu check: user-accessible mapping of ",
                   hw::FrameTypeName(type), " frame 0x", std::hex, paddr));
      }
      return OkStatus();
    case hw::FrameType::kPageTable:
      // Page-table frames are writable only by the SVM itself: neither a
      // user mapping nor a kernel-writable mapping may exist.
      if ((flags & (hw::kPteUser | hw::kPteWritable)) != 0) {
        return SafetyViolation(
            StrCat("mmu check: writable or user mapping of page-table "
                   "frame 0x",
                   std::hex, paddr));
      }
      return OkStatus();
    case hw::FrameType::kSvm:
      if ((flags & hw::kPteSvmReserved) == 0) {
        return SafetyViolation(
            StrCat("mmu check: kernel mapping of SVM frame 0x", std::hex,
                   paddr));
      }
      return OkStatus();
  }
  return OkStatus();
}

}  // namespace

Status SvaOS::MmuMap(uint32_t asid, uint64_t vaddr, uint64_t paddr,
                     uint32_t flags) {
  ++cpu_stats().mmu_ops;
  trace::Emit(trace::EventId::kMmuOp, vaddr, 0);
  // SVM mediation: the kernel may never create a mapping into SVM pages.
  if ((flags & hw::kPteSvmReserved) != 0) {
    return FailedPrecondition("kernel may not create SVM-reserved mappings");
  }
  Status check = CheckMappingAgainstFrameType(
      machine_.mmu().frame_type(paddr), paddr, flags);
  if (!check.ok()) {
    ++cpu_stats().mmu_checks_failed;
    return check;
  }
  return machine_.mmu().Map(asid, vaddr, paddr, flags);
}

Status SvaOS::MmuUnmap(uint32_t asid, uint64_t vaddr) {
  ++cpu_stats().mmu_ops;
  trace::Emit(trace::EventId::kMmuOp, vaddr, 1);
  return machine_.mmu().Unmap(asid, vaddr);
}

Status SvaOS::MmuProtect(uint32_t asid, uint64_t vaddr, uint32_t flags) {
  ++cpu_stats().mmu_ops;
  ++cpu_stats().mmu_protects;
  trace::Emit(trace::EventId::kMmuOp, vaddr, 4);
  if ((flags & hw::kPteSvmReserved) != 0) {
    return FailedPrecondition("kernel may not create SVM-reserved mappings");
  }
  // Re-validate against the frame the mapping points at: a protection
  // change to user/writable is as dangerous as a fresh map.
  hw::PageTableEntry pte;
  if (machine_.mmu().Lookup(asid, vaddr, &pte)) {
    const uint64_t paddr = pte.physical_page * hw::kPageSize;
    Status check = CheckMappingAgainstFrameType(
        machine_.mmu().frame_type(paddr), paddr, flags);
    if (!check.ok()) {
      ++cpu_stats().mmu_checks_failed;
      return check;
    }
  }
  return machine_.mmu().Protect(asid, vaddr, flags);
}

Status SvaOS::DeclareFrameType(uint64_t paddr, hw::FrameType type) {
  ++cpu_stats().mmu_ops;
  trace::Emit(trace::EventId::kMmuOp, paddr, 5);
  if (paddr % hw::kPageSize != 0) {
    return InvalidArgument("declare-frame-type: unaligned frame address");
  }
  machine_.mmu().DeclareFrameType(paddr, type);
  return OkStatus();
}

Result<uint32_t> SvaOS::CreateAddressSpace() {
  ++cpu_stats().mmu_ops;
  return machine_.mmu().CreateAddressSpace();
}

Status SvaOS::DestroyAddressSpace(uint32_t asid) {
  ++cpu_stats().mmu_ops;
  return machine_.mmu().DestroyAddressSpace(asid);
}

Status SvaOS::TlbShootdown(uint32_t asid, uint64_t vaddr, bool entire_asid) {
  ++cpu_stats().tlb_shootdowns;
  trace::Emit(trace::EventId::kTlbShootdown, asid,
              entire_asid ? 0 : vaddr);
  // Invalidate every CPU's TLB synchronously — the moral equivalent of an
  // IPI round where the initiator spins until all acks arrive. The PTE
  // mutation always happens BEFORE the caller invokes this, so after it
  // returns no CPU can load the stale translation.
  smp::VirtualCpu& self = vmp_.Current();
  for (unsigned i = 0; i < vmp_.num_cpus(); ++i) {
    smp::VirtualCpu& target = vmp_.cpu(i);
    if (entire_asid) {
      target.tlb().InvalidateAsid(asid);
    } else {
      target.tlb().InvalidatePage(asid, vaddr);
    }
    if (&target != &self) {
      target.tlb().CountShootdown();
    }
  }
  // Deliver the IPI through the normal interrupt path on the initiating
  // CPU when the kernel registered a handler for the vector.
  if (interrupts_[kTlbShootdownVector]) {
    return RaiseInterrupt(kTlbShootdownVector);
  }
  return OkStatus();
}

Status SvaOS::LoadPageTable(uint64_t base) {
  ++cpu_stats().mmu_ops;
  trace::Emit(trace::EventId::kMmuOp, base, 2);
  cpu_hw().control().page_table_base = base;
  return OkStatus();
}

Status SvaOS::ReserveSvmPage(uint64_t vaddr, uint64_t paddr) {
  ++cpu_stats().mmu_ops;
  trace::Emit(trace::EventId::kMmuOp, vaddr, 3);
  // The frame becomes SVM-typed, so any later kernel MmuMap of it is
  // rejected by the frame-type check regardless of the target vaddr.
  machine_.mmu().DeclareFrameType(paddr, hw::FrameType::kSvm);
  return machine_.mmu().Map(vaddr, paddr,
                            hw::kPtePresent | hw::kPteWritable |
                                hw::kPteSvmReserved);
}

Result<uint64_t> SvaOS::IoRead(uint16_t port) {
  ++cpu_stats().io_ops;
  trace::Emit(trace::EventId::kIoOp, port, 0);
  return machine_.IoRead(port);
}

Status SvaOS::IoWrite(uint16_t port, uint64_t value) {
  ++cpu_stats().io_ops;
  trace::Emit(trace::EventId::kIoOp, port, 1);
  return machine_.IoWrite(port, value);
}

}  // namespace sva::svaos
