// The SVM translator/execution engine. Executes SVA bytecode against the
// flat virtual address space, routing the pchk.*/sva.* operations to the
// MetaPool runtime and kernel allocator calls to host implementations.
//
// In the paper the translator emits native code; here it interprets. All
// four benchmark configurations run on the same engine, so relative
// overheads between configurations remain meaningful (see DESIGN.md §2).
#ifndef SVA_SRC_SVM_INTERP_H_
#define SVA_SRC_SVM_INTERP_H_

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/runtime/metapool_runtime.h"
#include "src/runtime/pool_allocator.h"
#include "src/support/status.h"
#include "src/svm/address_space.h"
#include "src/vir/intrinsics.h"
#include "src/vir/module.h"

namespace sva::svm {

class ThreadedEngine;

// Outcome of executing one entry point.
struct ExecResult {
  Status status;           // OK, or the first trap (safety violation/fault).
  uint64_t value = 0;      // Integer/pointer return value.
  double fvalue = 0;       // Floating return value.
  uint64_t steps = 0;      // Instructions executed.
};

// Which engine executes verified bytecode. Both tiers share the arithmetic
// and trap semantics in exec_semantics.h and all run-time check plumbing, so
// results, statuses, and CheckStats are identical — the differential battery
// in tests/tier_parity_test.cc enforces this.
enum class ExecTier {
  // The tree-walking reference interpreter (one std::map frame per call).
  kInterp,
  // The pre-decoded threaded-code tier: each function is lowered once into a
  // flat stream of handler records with dense operand slots and pre-linked
  // branch targets. Every verified function lowers; nothing on this tier
  // runs on the tree-walker.
  kThreaded,
};

struct InterpOptions {
  // When false, the pchk.*/sva.* operations become no-ops: this is the
  // "Linux-native"-style configuration used to isolate check overheads.
  bool enforce_checks = true;
  // When false, the per-metapool object-lookup cache in front of the splay
  // trees is disabled and every check pays the full splay lookup (the
  // benchmark harness uses this to measure the fast path's effect).
  bool use_lookup_cache = true;
  // Abort after this many executed instructions (runaway-loop guard).
  uint64_t max_steps = 500'000'000;
  // Execution engine. Threaded is the default; kInterp forces the reference
  // tree-walker everywhere (svm-run --tier=interp).
  ExecTier tier = ExecTier::kThreaded;
};

class Interpreter {
 public:
  // A host function receives the raw 64-bit argument slots and returns the
  // 64-bit result slot.
  using HostFn =
      std::function<Result<uint64_t>(Interpreter&, std::span<const uint64_t>)>;

  Interpreter(vir::Module& module, runtime::MetaPoolRuntime& pools,
              InterpOptions options = {});
  ~Interpreter();

  // Lays out globals, creates run-time metapools from the module's
  // declarations, registers the userspace object in user-reachable pools,
  // registers indirect-call target sets, and binds the default kernel
  // allocator host functions (kmalloc/kfree/kmem_cache_*).
  Status Initialize();

  // Binds (or overrides) a host implementation for a declared function.
  void BindHost(const std::string& name, HostFn fn);

  // Runs @name with the given integer/pointer arguments.
  ExecResult Run(const std::string& name, const std::vector<uint64_t>& args);

  // --- Introspection used by tests, exploits, and benches -------------------
  AddressSpace& memory() { return *memory_; }
  runtime::MetaPoolRuntime& pools() { return pools_; }
  runtime::OrdinaryAllocator& kmalloc() { return *kmalloc_; }
  vir::Module& module() { return module_; }

  // Address of a global (0 if unknown).
  uint64_t GlobalAddress(const std::string& name) const;
  // Code address assigned to a function (0 if unknown).
  uint64_t FunctionAddress(const std::string& name) const;
  const vir::Function* FunctionAt(uint64_t code_address) const;
  // The run-time metapool behind a metapool handle global, or nullptr.
  runtime::MetaPool* PoolForHandle(uint64_t handle_address) const;
  runtime::MetaPool* PoolByName(const std::string& name) const;

  // Registers a kmem_cache created by bytecode or host code; returns its
  // descriptor address (usable as the first argument of kmem_cache_alloc).
  uint64_t CreateKmemCache(const std::string& name, uint64_t object_size);
  runtime::PoolAllocator* KmemCacheAt(uint64_t descriptor);

 private:
  class Frame;
  friend class ThreadedEngine;

  // Evaluates a constant or SSA value in the current frame.
  Result<uint64_t> Eval(const Frame& frame, const vir::Value* v) const;
  Result<double> EvalF(const Frame& frame, const vir::Value* v) const;

  ExecResult RunFunction(const vir::Function& fn,
                         const std::vector<uint64_t>& args,
                         const std::vector<double>& fargs, uint64_t depth);
  // The tree-walking engine behind RunFunction on the kInterp tier.
  ExecResult RunFunctionInterp(const vir::Function& fn,
                               const std::vector<uint64_t>& args,
                               const std::vector<double>& fargs,
                               uint64_t depth);
  // The interned "guest:<fn>" profiler name id for `fn`, cached per
  // function (an Interpreter runs on one thread; no lock).
  uint32_t ProfFunctionId(const vir::Function& fn);

  // Executes an intrinsic; `handled` is false if `callee` is not one.
  Result<uint64_t> RunIntrinsic(const vir::Function& callee,
                                std::span<const uint64_t> args, bool* handled);
  // The id-keyed body of RunIntrinsic: `which` must not be kNone. The
  // threaded tier pre-resolves intrinsic ids at decode time and calls this
  // directly, so both tiers share one implementation of every check.
  Result<uint64_t> RunIntrinsicById(vir::Intrinsic which,
                                    std::span<const uint64_t> args);

  // Stack/heap allocation shared by both tiers: overflow-checked
  // element*count scaling plus the stack-limit / allocator paths.
  Result<uint64_t> AllocaBytes(uint64_t elem_size, uint64_t count);
  Result<uint64_t> MallocBytes(uint64_t elem_size, uint64_t count);
  Status FreeAddr(uint64_t addr);

  Status LayoutGlobals();
  Status CreatePools();

  vir::Module& module_;
  runtime::MetaPoolRuntime& pools_;
  InterpOptions options_;
  std::unique_ptr<AddressSpace> memory_;
  std::unique_ptr<runtime::OrdinaryAllocator> kmalloc_;

  std::map<std::string, uint64_t> global_addresses_;
  std::map<std::string, uint64_t> function_addresses_;
  std::map<uint64_t, const vir::Function*> functions_by_address_;
  std::map<uint64_t, runtime::MetaPool*> pools_by_handle_;
  std::map<uint64_t, std::unique_ptr<runtime::PoolAllocator>> kmem_caches_;
  std::map<std::string, HostFn> host_fns_;
  // Maps module target-set ids to runtime target-set ids.
  std::vector<uint64_t> runtime_set_ids_;
  // Interned profiler name ids (ProfFunctionId).
  std::map<const vir::Function*, uint32_t> prof_name_ids_;

  // The threaded-code tier; null when options_.tier == kInterp.
  std::unique_ptr<ThreadedEngine> threaded_;

  uint64_t steps_ = 0;
  uint64_t stack_arena_ = 0;
  uint64_t stack_top_ = 0;
  uint64_t stack_limit_ = 0;
  bool initialized_ = false;

  // Per-tier dispatch accounting, accumulated without atomics on the hot
  // path and flushed to trace::TierCounters at the end of each Run().
  uint64_t tier_interp_fns_ = 0;
  uint64_t tier_interp_ops_ = 0;
  uint64_t tier_threaded_fns_ = 0;
  uint64_t tier_threaded_ops_ = 0;
};

}  // namespace sva::svm

#endif  // SVA_SRC_SVM_INTERP_H_
