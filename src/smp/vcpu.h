// The virtual multiprocessor: VirtualCpu bundles everything the SVM keeps
// per processor, exactly the state the paper's SVA-OS operations manipulate
// per-CPU (Section 3.3):
//
//  * the processor's native control/FP state (an hw::Cpu),
//  * the interrupt-context stack (a fixed slab, like the kernel stack),
//  * scratch SavedIntegerState/SavedFpState buffers for context switching,
//  * the per-processor SvaOsStats, aggregated on demand.
//
// CPU 0 aliases the hw::Machine's boot CPU so single-processor behaviour is
// bit-for-bit what it was before the SMP subsystem existed; CPUs 1..N-1 own
// their hw::Cpu outright. Worker threads bind to a VirtualCpu with
// smp::ScopedCpu and SvaOS routes every privileged-state access through the
// current CPU.
#ifndef SVA_SRC_SMP_VCPU_H_
#define SVA_SRC_SMP_VCPU_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/smp/percpu.h"

namespace sva::svaos {
class SvaOS;
}  // namespace sva::svaos

namespace sva::smp {

// Opaque buffer for llva.save.integer / llva.load.integer (Table 1). The
// kernel sees only this handle; the layout belongs to the SVM.
struct SavedIntegerState {
  hw::ControlState control;
  bool valid = false;
};

// Opaque buffer for llva.save.fp / llva.load.fp.
struct SavedFpState {
  hw::FpState fp;
  bool valid = false;
};

// A function call pushed onto an interrupted context by
// llva.ipush.function — the signal-dispatch mechanism of Table 2.
struct PushedCall {
  std::function<void(uint64_t)> fn;
  uint64_t argument = 0;
};

// The interrupt context of Section 3.3: the interrupted control state, kept
// on the owning CPU's context slab by the SVM, manipulated only through the
// llva.icontext operations.
class InterruptContext {
 public:
  uint64_t id() const { return id_; }
  bool committed() const { return committed_; }

 private:
  friend class sva::svaos::SvaOS;
  friend class VirtualCpu;
  uint64_t id_ = 0;
  hw::ControlState interrupted_;
  bool from_privileged_ = false;
  bool committed_ = false;
  std::vector<PushedCall> pushed_;
};

// Per-operation counters; the Table 7 analysis attributes syscall overhead
// to these operations. Kept per-CPU and summed on demand.
struct SvaOsStats {
  uint64_t save_integer = 0;
  uint64_t load_integer = 0;
  uint64_t save_fp = 0;
  uint64_t save_fp_skipped = 0;  // Lazy saves avoided (Table 1 `always=0`).
  uint64_t load_fp = 0;
  uint64_t icontext_created = 0;
  uint64_t icontext_committed = 0;
  uint64_t ipush_function = 0;
  uint64_t syscalls_dispatched = 0;
  uint64_t interrupts_dispatched = 0;
  uint64_t mmu_ops = 0;
  uint64_t mmu_protects = 0;
  uint64_t mmu_checks_failed = 0;  // §4.3 frame-type checks that rejected.
  uint64_t tlb_shootdowns = 0;     // Shootdown rounds initiated here.
  uint64_t io_ops = 0;

  SvaOsStats& operator+=(const SvaOsStats& other);
};

static_assert(kMaxCpus <= 16, "context ids carry the CPU id in 4 bits");

class VirtualCpu {
 public:
  // The kernel-stack region holding live interrupt contexts: a fixed slab,
  // like the real kernel stack — no allocation on the trap path. Nested
  // interrupts stack up to the slab depth.
  static constexpr size_t kMaxNestedContexts = 32;

  // CPU 0 of a machine is constructed over the machine's boot CPU
  // (`external` non-null); application processors own their state.
  explicit VirtualCpu(unsigned id, hw::Cpu* external = nullptr);

  unsigned id() const { return id_; }
  hw::Cpu& cpu() { return *cpu_; }
  const hw::Cpu& cpu() const { return *cpu_; }

  // This CPU's translation lookaside buffer. Remote CPUs reach in only to
  // invalidate (SvaOS::TlbShootdown); the owning thread fills and queries.
  hw::Tlb& tlb() { return tlb_; }
  const hw::Tlb& tlb() const { return tlb_; }

  SvaOsStats& stats() { return stats_; }
  const SvaOsStats& stats() const { return stats_; }

  // --- Interrupt-context stack ----------------------------------------------
  // Pushes a fresh context (wrapping at the slab depth, matching the
  // pre-SMP behaviour for pathological nesting).
  InterruptContext* PushContext(uint64_t id);
  // A context id unique across all CPUs, drawn without a shared counter:
  // this CPU's own sequence number with the CPU id in the low 4 bits.
  uint64_t NextContextId() { return (++context_seq_ << 4) | id_; }
  // Pops `icp` if it is the innermost context.
  void PopContext(InterruptContext* icp);
  size_t icontext_depth() const { return icontext_depth_; }

  // --- Context-switch scratch buffers ---------------------------------------
  SavedIntegerState& integer_scratch() { return integer_scratch_; }
  SavedFpState& fp_scratch() { return fp_scratch_; }

 private:
  const unsigned id_;
  std::unique_ptr<hw::Cpu> owned_cpu_;  // Null for the boot CPU.
  hw::Cpu* cpu_;
  hw::Tlb tlb_;
  SvaOsStats stats_;
  std::array<InterruptContext, kMaxNestedContexts> icontext_slab_;
  size_t icontext_depth_ = 0;
  uint64_t context_seq_ = 0;
  SavedIntegerState integer_scratch_;
  SavedFpState fp_scratch_;
};

// The set of virtual CPUs behind one SvaOS instance. CPU topology is
// configured once (before worker threads start); dispatch then picks the
// calling thread's CPU via smp::current_cpu_id().
class VirtualMultiprocessor {
 public:
  // Boots with one CPU over `boot_cpu`.
  explicit VirtualMultiprocessor(hw::Cpu& boot_cpu);

  // Brings the processor count to `n` (clamped to [1, kMaxCpus]).
  // Application processors start with a copy of the boot CPU's control
  // state, as if released from the boot trampoline. Not thread-safe; call
  // before spawning workers.
  void Configure(unsigned n);

  unsigned num_cpus() const { return static_cast<unsigned>(cpus_.size()); }
  VirtualCpu& cpu(unsigned id) { return *cpus_[id % cpus_.size()]; }
  // The calling thread's CPU (threads bound past the configured count share
  // the last CPU rather than faulting).
  VirtualCpu& Current() {
    unsigned id = current_cpu_id();
    return *cpus_[id < cpus_.size() ? id : cpus_.size() - 1];
  }

  // Sums the per-CPU operation counters.
  SvaOsStats AggregateStats() const;
  void ResetStats();

 private:
  std::vector<std::unique_ptr<VirtualCpu>> cpus_;
  hw::Cpu& boot_cpu_;
};

}  // namespace sva::smp

#endif  // SVA_SRC_SMP_VCPU_H_
