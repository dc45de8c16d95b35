#include "src/svm/interp.h"

#include <cassert>

#include "src/support/strings.h"
#include "src/svm/exec_semantics.h"
#include "src/svm/threaded_interp.h"
#include "src/trace/metrics.h"
#include "src/trace/profiler.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::svm {

using vir::AllocaInst;
using vir::Argument;
using vir::AtomicLISInst;
using vir::BasicBlock;
using vir::BinaryInst;
using vir::BranchInst;
using vir::CallInst;
using vir::CastInst;
using vir::CmpInst;
using vir::CmpPred;
using vir::CmpXchgInst;
using vir::ConstantFloat;
using vir::ConstantInt;
using vir::FreeInst;
using vir::Function;
using vir::GetElementPtrInst;
using vir::GlobalVariable;
using vir::Instruction;
using vir::Intrinsic;
using vir::LoadInst;
using vir::MallocInst;
using vir::Opcode;
using vir::PhiInst;
using vir::PointerType;
using vir::RetInst;
using vir::SelectInst;
using vir::StoreInst;
using vir::SwitchInst;
using vir::Type;
using vir::Value;

using sem::BitWidthOf;
using sem::MaskToWidth;
using sem::SignExtend;
using sem::kMaxCallDepth;

namespace {

constexpr uint64_t kFunctionAddressBase = 0xF0000000ull;
constexpr uint64_t kFunctionAddressStride = 16;
constexpr uint64_t kStackArenaSize = 1 << 20;

}  // namespace

// Per-call SSA value environment.
class Interpreter::Frame {
 public:
  uint64_t Get(const Value* v) const {
    auto it = ints_.find(v);
    return it == ints_.end() ? 0 : it->second;
  }
  double GetF(const Value* v) const {
    auto it = floats_.find(v);
    return it == floats_.end() ? 0 : it->second;
  }
  void Set(const Value* v, uint64_t x) { ints_[v] = x; }
  void SetF(const Value* v, double x) { floats_[v] = x; }

 private:
  std::map<const Value*, uint64_t> ints_;
  std::map<const Value*, double> floats_;
};

Interpreter::Interpreter(vir::Module& module, runtime::MetaPoolRuntime& pools,
                         InterpOptions options)
    : module_(module),
      pools_(pools),
      options_(options),
      memory_(std::make_unique<AddressSpace>()) {
  if (options_.tier == ExecTier::kThreaded) {
    threaded_ = std::make_unique<ThreadedEngine>(*this);
  }
}

Interpreter::~Interpreter() = default;

Status Interpreter::LayoutGlobals() {
  // Assign code addresses to all functions first so globals can hold
  // function pointers.
  uint64_t next_code = kFunctionAddressBase;
  for (const auto& fn : module_.functions()) {
    function_addresses_[fn->name()] = next_code;
    functions_by_address_[next_code] = fn.get();
    next_code += kFunctionAddressStride;
  }
  for (const auto& gv : module_.globals()) {
    uint64_t size = std::max<uint64_t>(vir::SizeOf(gv->value_type()), 8);
    uint64_t addr =
        memory_->AllocateRegion(size, std::max<uint64_t>(
                                          vir::AlignOf(gv->value_type()), 8));
    if (addr == 0) {
      return Internal("out of memory laying out globals");
    }
    global_addresses_[gv->name()] = addr;
    if (gv->has_int_initializer()) {
      SVA_RETURN_IF_ERROR(memory_->Write(addr, 8, gv->int_initializer()));
    }
    if (vir::IsMetapoolHandle(gv.get())) {
      // Resolved to runtime pools in CreatePools().
      continue;
    }
  }
  return OkStatus();
}

Status Interpreter::CreatePools() {
  for (const auto& [name, decl] : module_.metapools()) {
    uint64_t elem_size =
        decl.element_type != nullptr ? vir::SizeOf(decl.element_type) : 0;
    runtime::MetaPool* pool =
        pools_.GetPool(name, decl.type_homogeneous, elem_size, decl.complete);
    auto it = global_addresses_.find(name);
    if (it != global_addresses_.end()) {
      pools_by_handle_[it->second] = pool;
    }
    if (decl.user_reachable) {
      SVA_RETURN_IF_ERROR(pools_.RegisterUserspace(
          *pool, memory_->user_base(), memory_->user_size()));
    }
  }
  for (const auto& set : module_.target_sets()) {
    std::vector<uint64_t> addrs;
    for (const std::string& fn : set) {
      auto it = function_addresses_.find(fn);
      if (it != function_addresses_.end()) {
        addrs.push_back(it->second);
      }
    }
    runtime_set_ids_.push_back(pools_.RegisterTargetSet(std::move(addrs)));
  }
  return OkStatus();
}

Status Interpreter::Initialize() {
  pools_.set_lookup_cache_enabled(options_.use_lookup_cache);
  SVA_RETURN_IF_ERROR(LayoutGlobals());
  SVA_RETURN_IF_ERROR(CreatePools());
  stack_arena_ = memory_->AllocateRegion(kStackArenaSize, 16);
  if (stack_arena_ == 0) {
    return Internal("out of memory reserving the stack arena");
  }
  stack_top_ = stack_arena_;
  stack_limit_ = stack_arena_ + kStackArenaSize;
  kmalloc_ = std::make_unique<runtime::OrdinaryAllocator>(memory_->pages());

  // --- Default kernel-allocator host bindings --------------------------------
  BindHost("kmalloc", [](Interpreter& in, std::span<const uint64_t> args)
               -> Result<uint64_t> {
    uint64_t size = args.empty() ? 0 : args[0];
    uint64_t addr = in.kmalloc().Allocate(size);
    if (addr == 0) {
      return Internal("kmalloc: out of memory");
    }
    SVA_RETURN_IF_ERROR(
        in.memory().Fill(addr, 0, in.kmalloc().AllocationSize(addr)));
    return addr;
  });
  BindHost("_alloc_bootmem", [](Interpreter& in,
                                std::span<const uint64_t> args)
               -> Result<uint64_t> {
    uint64_t addr = in.kmalloc().Allocate(args.empty() ? 0 : args[0]);
    if (addr == 0) {
      return Internal("_alloc_bootmem: out of memory");
    }
    return addr;
  });
  BindHost("kfree",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.empty() || args[0] == 0) {
               return uint64_t{0};
             }
             Status s = in.kmalloc().Free(args[0]);
             if (!s.ok()) {
               return SafetyViolation(
                   StrCat("kfree: ", s.message()));
             }
             return uint64_t{0};
           });
  BindHost("kmem_cache_create",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             uint64_t size = args.empty() ? 8 : args[0];
             return in.CreateKmemCache(StrCat("cache-", size), size);
           });
  BindHost("kmem_cache_alloc",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.empty()) {
               return InvalidArgument("kmem_cache_alloc: missing cache");
             }
             runtime::PoolAllocator* cache = in.KmemCacheAt(args[0]);
             if (cache == nullptr) {
               return InvalidArgument("kmem_cache_alloc: bad descriptor");
             }
             uint64_t addr = cache->Allocate();
             if (addr == 0) {
               return Internal("kmem_cache_alloc: out of memory");
             }
             SVA_RETURN_IF_ERROR(
                 in.memory().Fill(addr, 0, cache->object_size()));
             return addr;
           });
  BindHost("kmem_cache_free",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.size() < 2) {
               return InvalidArgument("kmem_cache_free: missing args");
             }
             runtime::PoolAllocator* cache = in.KmemCacheAt(args[0]);
             if (cache == nullptr) {
               return InvalidArgument("kmem_cache_free: bad descriptor");
             }
             Status s = cache->Free(args[1]);
             if (!s.ok()) {
               return SafetyViolation(StrCat("kmem_cache_free: ",
                                             s.message()));
             }
             return uint64_t{0};
           });
  // The user-to-kernel copy routines. These model the *external kernel
  // library* of Section 7.2: they perform no checking of their own, which is
  // exactly why the ELF-loader exploit is missed when this library is not
  // part of the analyzed bytecode.
  BindHost("copy_from_user",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.size() < 3) {
               return InvalidArgument("copy_from_user: missing args");
             }
             SVA_RETURN_IF_ERROR(in.memory().Copy(args[0], args[1], args[2]));
             return uint64_t{0};
           });
  BindHost("copy_to_user",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.size() < 3) {
               return InvalidArgument("copy_to_user: missing args");
             }
             SVA_RETURN_IF_ERROR(in.memory().Copy(args[0], args[1], args[2]));
             return uint64_t{0};
           });
  BindHost("memset",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.size() < 3) {
               return InvalidArgument("memset: missing args");
             }
             SVA_RETURN_IF_ERROR(in.memory().Fill(
                 args[0], static_cast<uint8_t>(args[1]), args[2]));
             return args[0];
           });
  BindHost("memcpy",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.size() < 3) {
               return InvalidArgument("memcpy: missing args");
             }
             SVA_RETURN_IF_ERROR(in.memory().Copy(args[0], args[1], args[2]));
             return args[0];
           });
  BindHost("kmem_cache_size",
           [](Interpreter& in,
              std::span<const uint64_t> args) -> Result<uint64_t> {
             if (args.empty()) {
               return InvalidArgument("kmem_cache_size: missing descriptor");
             }
             runtime::PoolAllocator* cache = in.KmemCacheAt(args[0]);
             if (cache == nullptr) {
               return InvalidArgument("kmem_cache_size: bad descriptor");
             }
             return cache->object_size();
           });
  initialized_ = true;
  // The safety compiler synthesizes @sva.init to register global objects;
  // the SVM runs it as part of loading the module (kernel "entry").
  vir::Function* init = module_.GetFunction("sva.init");
  if (init != nullptr && !init->is_declaration()) {
    ExecResult r = Run("sva.init", {});
    if (!r.status.ok()) {
      return r.status;
    }
  }
  return OkStatus();
}

void Interpreter::BindHost(const std::string& name, HostFn fn) {
  host_fns_[name] = std::move(fn);
}

uint64_t Interpreter::GlobalAddress(const std::string& name) const {
  auto it = global_addresses_.find(name);
  return it == global_addresses_.end() ? 0 : it->second;
}

uint64_t Interpreter::FunctionAddress(const std::string& name) const {
  auto it = function_addresses_.find(name);
  return it == function_addresses_.end() ? 0 : it->second;
}

const Function* Interpreter::FunctionAt(uint64_t code_address) const {
  auto it = functions_by_address_.find(code_address);
  return it == functions_by_address_.end() ? nullptr : it->second;
}

runtime::MetaPool* Interpreter::PoolForHandle(uint64_t handle_address) const {
  auto it = pools_by_handle_.find(handle_address);
  return it == pools_by_handle_.end() ? nullptr : it->second;
}

runtime::MetaPool* Interpreter::PoolByName(const std::string& name) const {
  return pools_.FindPool(name);
}

uint64_t Interpreter::CreateKmemCache(const std::string& name,
                                      uint64_t object_size) {
  uint64_t descriptor = memory_->AllocateRegion(64, 16);
  if (descriptor == 0) {
    return 0;
  }
  kmem_caches_[descriptor] = std::make_unique<runtime::PoolAllocator>(
      name, object_size, memory_->pages());
  return descriptor;
}

runtime::PoolAllocator* Interpreter::KmemCacheAt(uint64_t descriptor) {
  auto it = kmem_caches_.find(descriptor);
  return it == kmem_caches_.end() ? nullptr : it->second.get();
}

Result<uint64_t> Interpreter::Eval(const Frame& frame, const Value* v) const {
  switch (v->value_kind()) {
    case vir::ValueKind::kConstantInt:
      return static_cast<const ConstantInt*>(v)->zext_value();
    case vir::ValueKind::kConstantNull:
      return uint64_t{0};
    case vir::ValueKind::kConstantUndef:
      return uint64_t{0};
    case vir::ValueKind::kConstantFloat:
      return InvalidArgument("float constant in integer context");
    case vir::ValueKind::kGlobalVariable: {
      auto it = global_addresses_.find(v->name());
      if (it == global_addresses_.end()) {
        return Internal(StrCat("unlaid global @", v->name()));
      }
      return it->second;
    }
    case vir::ValueKind::kFunction: {
      auto it = function_addresses_.find(v->name());
      if (it == function_addresses_.end()) {
        return Internal(StrCat("unassigned function @", v->name()));
      }
      return it->second;
    }
    case vir::ValueKind::kArgument:
    case vir::ValueKind::kInstruction:
      return frame.Get(v);
  }
  return Internal("bad value kind");
}

Result<double> Interpreter::EvalF(const Frame& frame, const Value* v) const {
  if (v->value_kind() == vir::ValueKind::kConstantFloat) {
    return static_cast<const ConstantFloat*>(v)->value();
  }
  if (v->value_kind() == vir::ValueKind::kConstantUndef) {
    return 0.0;
  }
  return frame.GetF(v);
}

Result<uint64_t> Interpreter::RunIntrinsic(const Function& callee,
                                           std::span<const uint64_t> args,
                                           bool* handled) {
  *handled = true;
  Intrinsic which = vir::LookupIntrinsic(callee.name());
  if (which == Intrinsic::kNone) {
    *handled = false;
    return uint64_t{0};
  }
  return RunIntrinsicById(which, args);
}

Result<uint64_t> Interpreter::RunIntrinsicById(vir::Intrinsic which,
                                               std::span<const uint64_t> args) {
  if (!options_.enforce_checks) {
    return uint64_t{0};
  }
  auto pool_arg = [&](size_t i) -> Result<runtime::MetaPool*> {
    if (i >= args.size()) {
      return InvalidArgument("intrinsic: missing metapool argument");
    }
    runtime::MetaPool* pool = PoolForHandle(args[i]);
    if (pool == nullptr) {
      return InvalidArgument(
          StrCat("intrinsic: bad metapool handle 0x", std::hex, args[i]));
    }
    return pool;
  };
  switch (which) {
    case Intrinsic::kPchkRegObj: {
      SVA_ASSIGN_OR_RETURN(runtime::MetaPool* pool, pool_arg(0));
      SVA_RETURN_IF_ERROR(pools_.RegisterObject(*pool, args[1], args[2]));
      return uint64_t{0};
    }
    case Intrinsic::kPchkDropObj: {
      SVA_ASSIGN_OR_RETURN(runtime::MetaPool* pool, pool_arg(0));
      SVA_RETURN_IF_ERROR(pools_.DropObject(*pool, args[1]));
      return uint64_t{0};
    }
    case Intrinsic::kBoundsCheck: {
      SVA_ASSIGN_OR_RETURN(runtime::MetaPool* pool, pool_arg(0));
      SVA_RETURN_IF_ERROR(pools_.BoundsCheck(*pool, args[1], args[2]));
      return uint64_t{0};
    }
    case Intrinsic::kBoundsCheckDirect: {
      SVA_RETURN_IF_ERROR(
          pools_.BoundsCheckDirect(args[0], args[1], args[2]));
      return uint64_t{0};
    }
    case Intrinsic::kGetBounds: {
      SVA_ASSIGN_OR_RETURN(runtime::MetaPool* pool, pool_arg(0));
      std::optional<runtime::ObjectRange> range =
          pools_.GetBounds(*pool, args[1]);
      uint64_t start = range.has_value() ? range->start : 0;
      uint64_t end = range.has_value() ? range->end() : 0;
      SVA_RETURN_IF_ERROR(memory_->Write(args[2], 8, start));
      SVA_RETURN_IF_ERROR(memory_->Write(args[3], 8, end));
      return uint64_t{0};
    }
    case Intrinsic::kLSCheck: {
      SVA_ASSIGN_OR_RETURN(runtime::MetaPool* pool, pool_arg(0));
      SVA_RETURN_IF_ERROR(pools_.LoadStoreCheck(*pool, args[1]));
      return uint64_t{0};
    }
    case Intrinsic::kIndirectCheck: {
      uint64_t module_set = args[1];
      uint64_t runtime_set = module_set < runtime_set_ids_.size()
                                 ? runtime_set_ids_[module_set]
                                 : module_set;
      SVA_RETURN_IF_ERROR(pools_.IndirectCallCheck(args[0], runtime_set));
      return uint64_t{0};
    }
    case Intrinsic::kPseudoAlloc:
      // The safety compiler rewrites pseudo_alloc into pchk.reg.obj; a
      // remaining call is a benign no-op in uninstrumented code.
      return uint64_t{0};
    case Intrinsic::kRegisterSyscall:
      // Static information for the pointer analysis; nothing to do at run
      // time in the SVM (the minikernel keeps its own dispatch table).
      return uint64_t{0};
    case Intrinsic::kNone:
      break;
  }
  return uint64_t{0};
}

Result<uint64_t> Interpreter::AllocaBytes(uint64_t elem_size, uint64_t count) {
  uint64_t size = 0;
  if (!sem::ScaledAllocSize(elem_size, count, &size)) {
    return sem::AllocSizeOverflow("alloca");
  }
  uint64_t base = (stack_top_ + 15) / 16 * 16;
  // `base < stack_top_` catches alignment wraparound at the top of the
  // address space; the subtraction form avoids `base + size` overflowing
  // into a "fits" verdict.
  if (base < stack_top_ || base > stack_limit_ ||
      size > stack_limit_ - base) {
    return SafetyViolation("kernel stack overflow");
  }
  stack_top_ = base + size;
  return base;
}

Result<uint64_t> Interpreter::MallocBytes(uint64_t elem_size, uint64_t count) {
  uint64_t size = 0;
  if (!sem::ScaledAllocSize(elem_size, count, &size)) {
    return sem::AllocSizeOverflow("malloc");
  }
  uint64_t addr = kmalloc_->Allocate(size == 0 ? 1 : size);
  if (addr == 0) {
    return Internal("malloc: out of memory");
  }
  SVA_RETURN_IF_ERROR(memory_->Fill(addr, 0, kmalloc_->AllocationSize(addr)));
  return addr;
}

Status Interpreter::FreeAddr(uint64_t addr) {
  if (addr == 0) {
    return OkStatus();
  }
  Status s = kmalloc_->Free(addr);
  if (!s.ok()) {
    return SafetyViolation(s.message());
  }
  return OkStatus();
}

ExecResult Interpreter::Run(const std::string& name,
                            const std::vector<uint64_t>& args) {
  ExecResult result;
  if (!initialized_) {
    result.status = FailedPrecondition("Initialize() has not been called");
    return result;
  }
  Function* fn = module_.GetFunction(name);
  if (fn == nullptr || fn->is_declaration()) {
    result.status = NotFound(StrCat("no defined function @", name));
    return result;
  }
  steps_ = 0;
  result = RunFunction(*fn, args, {}, 0);
  result.steps = steps_;
  // Fold this run's dispatch accounting into the process-wide tier
  // counters (/metrics and svm-run --stats read those).
  trace::TierCounters& tiers = trace::TierCounters::Get();
  tiers.interp_fns.fetch_add(tier_interp_fns_, std::memory_order_relaxed);
  tiers.interp_ops.fetch_add(tier_interp_ops_, std::memory_order_relaxed);
  tiers.threaded_fns.fetch_add(tier_threaded_fns_,
                               std::memory_order_relaxed);
  tiers.threaded_ops.fetch_add(tier_threaded_ops_,
                               std::memory_order_relaxed);
  tier_interp_fns_ = tier_interp_ops_ = 0;
  tier_threaded_fns_ = tier_threaded_ops_ = 0;
  return result;
}

ExecResult Interpreter::RunFunction(const Function& fn,
                                    const std::vector<uint64_t>& args,
                                    const std::vector<double>& fargs,
                                    uint64_t depth) {
  if (depth > kMaxCallDepth) {
    ExecResult result;
    result.status = Internal("call depth limit exceeded");
    return result;
  }
  // Tier dispatch: under kThreaded every call runs decoded threaded code,
  // and a function the decoder refuses fails the call. Nested calls from
  // either tier come back through here.
  const ThreadedCode* code = nullptr;
  if (threaded_ != nullptr) {
    Result<const ThreadedCode*> decoded = threaded_->CodeFor(fn);
    if (!decoded.ok()) {
      ExecResult result;
      result.status = decoded.status();
      return result;
    }
    code = *decoded;
  }
  // Publish this guest frame to the sampling profiler; nested calls from
  // both tiers funnel through here, so the sampled stack is the real guest
  // call stack, tier-tagged per frame.
  trace::ProfGuestFrameScope prof;
  if (trace::prof_enabled()) {
    prof.Enter(ProfFunctionId(fn), /*threaded=*/code != nullptr,
               /*safe_mode=*/options_.enforce_checks);
  }
  if (code != nullptr) {
    return threaded_->Execute(*code, args, fargs, depth);
  }
  return RunFunctionInterp(fn, args, fargs, depth);
}

uint32_t Interpreter::ProfFunctionId(const vir::Function& fn) {
  auto it = prof_name_ids_.find(&fn);
  if (it != prof_name_ids_.end()) {
    return it->second;
  }
  uint32_t id = trace::InternProfName(StrCat("guest:", fn.name()));
  prof_name_ids_.emplace(&fn, id);
  return id;
}

ExecResult Interpreter::RunFunctionInterp(const Function& fn,
                                          const std::vector<uint64_t>& args,
                                          const std::vector<double>& fargs,
                                          uint64_t depth) {
  ExecResult result;
  ++tier_interp_fns_;
  Frame frame;
  size_t fi = 0;
  for (size_t i = 0; i < fn.num_args(); ++i) {
    const Argument* arg = fn.arg(i);
    if (arg->type()->IsFloat()) {
      frame.SetF(arg, fi < fargs.size() ? fargs[fi++] : 0.0);
    } else {
      frame.Set(arg, i < args.size() ? args[i] : 0);
    }
  }

  uint64_t saved_stack = stack_top_;
  const BasicBlock* block = fn.entry();
  const BasicBlock* prev_block = nullptr;
  size_t index = 0;

  auto fail = [&](Status s) {
    stack_top_ = saved_stack;
    result.status = std::move(s);
    return result;
  };

  while (true) {
    if (block == nullptr || index >= block->instructions().size()) {
      return fail(Internal(StrCat("fell off the end of block in @",
                                  fn.name())));
    }
    const Instruction* inst = block->instructions()[index].get();
    ++tier_interp_ops_;
    if (++steps_ > options_.max_steps) {
      return fail(Internal("instruction budget exhausted"));
    }

    switch (inst->opcode()) {
      // --- Integer binary ops ---------------------------------------------
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kUDiv:
      case Opcode::kSDiv:
      case Opcode::kURem:
      case Opcode::kSRem:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr: {
        auto lr = Eval(frame, inst->operand(0));
        auto rr = Eval(frame, inst->operand(1));
        if (!lr.ok()) {
          return fail(lr.status());
        }
        if (!rr.ok()) {
          return fail(rr.status());
        }
        unsigned bits = BitWidthOf(inst->type());
        uint64_t l = MaskToWidth(*lr, bits);
        uint64_t r = MaskToWidth(*rr, bits);
        uint64_t out = 0;
        sem::ArithTrap trap =
            sem::EvalIntBinary(inst->opcode(), l, r, bits, &out);
        if (trap != sem::ArithTrap::kNone) {
          return fail(sem::ArithTrapStatus(trap));
        }
        frame.Set(inst, MaskToWidth(out, bits));
        break;
      }
      // --- Floating binary ops ---------------------------------------------
      case Opcode::kFAdd:
      case Opcode::kFSub:
      case Opcode::kFMul:
      case Opcode::kFDiv: {
        auto lr = EvalF(frame, inst->operand(0));
        auto rr = EvalF(frame, inst->operand(1));
        if (!lr.ok() || !rr.ok()) {
          return fail(lr.ok() ? rr.status() : lr.status());
        }
        frame.SetF(inst, sem::EvalFloatBinary(inst->opcode(), *lr, *rr));
        break;
      }
      case Opcode::kICmp: {
        const auto* cmp = static_cast<const CmpInst*>(inst);
        auto lr = Eval(frame, cmp->lhs());
        auto rr = Eval(frame, cmp->rhs());
        if (!lr.ok() || !rr.ok()) {
          return fail(lr.ok() ? rr.status() : lr.status());
        }
        unsigned bits = BitWidthOf(cmp->lhs()->type());
        frame.Set(inst, sem::EvalICmp(cmp->pred(), *lr, *rr, bits) ? 1 : 0);
        break;
      }
      case Opcode::kFCmp: {
        const auto* cmp = static_cast<const CmpInst*>(inst);
        auto lr = EvalF(frame, cmp->lhs());
        auto rr = EvalF(frame, cmp->rhs());
        if (!lr.ok() || !rr.ok()) {
          return fail(lr.ok() ? rr.status() : lr.status());
        }
        frame.Set(inst, sem::EvalFCmp(cmp->pred(), *lr, *rr) ? 1 : 0);
        break;
      }
      case Opcode::kSelect: {
        const auto* sel = static_cast<const SelectInst*>(inst);
        auto cr = Eval(frame, sel->condition());
        if (!cr.ok()) {
          return fail(cr.status());
        }
        const Value* chosen = (*cr & 1) != 0 ? sel->true_value()
                                             : sel->false_value();
        if (inst->type()->IsFloat()) {
          auto v = EvalF(frame, chosen);
          if (!v.ok()) {
            return fail(v.status());
          }
          frame.SetF(inst, *v);
        } else {
          auto v = Eval(frame, chosen);
          if (!v.ok()) {
            return fail(v.status());
          }
          frame.Set(inst, *v);
        }
        break;
      }
      // --- Casts -------------------------------------------------------------
      case Opcode::kTrunc:
      case Opcode::kZExt:
      case Opcode::kBitcast:
      case Opcode::kPtrToInt:
      case Opcode::kIntToPtr: {
        const auto* cast = static_cast<const CastInst*>(inst);
        auto v = Eval(frame, cast->src());
        if (!v.ok()) {
          return fail(v.status());
        }
        frame.Set(inst, MaskToWidth(*v, BitWidthOf(inst->type())));
        break;
      }
      case Opcode::kSExt: {
        const auto* cast = static_cast<const CastInst*>(inst);
        auto v = Eval(frame, cast->src());
        if (!v.ok()) {
          return fail(v.status());
        }
        unsigned src_bits = BitWidthOf(cast->src()->type());
        frame.Set(inst,
                  MaskToWidth(static_cast<uint64_t>(SignExtend(*v, src_bits)),
                              BitWidthOf(inst->type())));
        break;
      }
      case Opcode::kSIToFP: {
        const auto* cast = static_cast<const CastInst*>(inst);
        auto v = Eval(frame, cast->src());
        if (!v.ok()) {
          return fail(v.status());
        }
        frame.SetF(inst, static_cast<double>(
                             SignExtend(*v, BitWidthOf(cast->src()->type()))));
        break;
      }
      case Opcode::kFPToSI: {
        const auto* cast = static_cast<const CastInst*>(inst);
        auto v = EvalF(frame, cast->src());
        if (!v.ok()) {
          return fail(v.status());
        }
        frame.Set(inst, MaskToWidth(static_cast<uint64_t>(
                                        static_cast<int64_t>(*v)),
                                    BitWidthOf(inst->type())));
        break;
      }
      // --- Memory -------------------------------------------------------------
      case Opcode::kAlloca: {
        const auto* a = static_cast<const AllocaInst*>(inst);
        auto count = Eval(frame, a->count());
        if (!count.ok()) {
          return fail(count.status());
        }
        auto base = AllocaBytes(vir::SizeOf(a->allocated_type()), *count);
        if (!base.ok()) {
          return fail(base.status());
        }
        frame.Set(inst, *base);
        break;
      }
      case Opcode::kMalloc: {
        const auto* m = static_cast<const MallocInst*>(inst);
        auto count = Eval(frame, m->count());
        if (!count.ok()) {
          return fail(count.status());
        }
        auto addr = MallocBytes(vir::SizeOf(m->allocated_type()), *count);
        if (!addr.ok()) {
          return fail(addr.status());
        }
        frame.Set(inst, *addr);
        break;
      }
      case Opcode::kFree: {
        const auto* f = static_cast<const FreeInst*>(inst);
        auto addr = Eval(frame, f->pointer());
        if (!addr.ok()) {
          return fail(addr.status());
        }
        Status s = FreeAddr(*addr);
        if (!s.ok()) {
          return fail(s);
        }
        break;
      }
      case Opcode::kLoad: {
        const auto* load = static_cast<const LoadInst*>(inst);
        auto addr = Eval(frame, load->pointer());
        if (!addr.ok()) {
          return fail(addr.status());
        }
        const Type* t = inst->type();
        if (t->IsFloat()) {
          if (static_cast<const vir::FloatType*>(t)->bits() == 32) {
            auto v = memory_->ReadF32(*addr);
            if (!v.ok()) {
              return fail(v.status());
            }
            frame.SetF(inst, *v);
          } else {
            auto v = memory_->ReadF64(*addr);
            if (!v.ok()) {
              return fail(v.status());
            }
            frame.SetF(inst, *v);
          }
        } else {
          auto v = memory_->Read(*addr,
                                 static_cast<unsigned>(vir::SizeOf(t)));
          if (!v.ok()) {
            return fail(v.status());
          }
          frame.Set(inst, *v);
        }
        break;
      }
      case Opcode::kStore: {
        const auto* store = static_cast<const StoreInst*>(inst);
        auto addr = Eval(frame, store->pointer());
        if (!addr.ok()) {
          return fail(addr.status());
        }
        const Type* t = store->stored_value()->type();
        Status s;
        if (t->IsFloat()) {
          auto v = EvalF(frame, store->stored_value());
          if (!v.ok()) {
            return fail(v.status());
          }
          s = static_cast<const vir::FloatType*>(t)->bits() == 32
                  ? memory_->WriteF32(*addr, static_cast<float>(*v))
                  : memory_->WriteF64(*addr, *v);
        } else {
          auto v = Eval(frame, store->stored_value());
          if (!v.ok()) {
            return fail(v.status());
          }
          s = memory_->Write(*addr, static_cast<unsigned>(vir::SizeOf(t)),
                             *v);
        }
        if (!s.ok()) {
          return fail(s);
        }
        break;
      }
      case Opcode::kGetElementPtr: {
        const auto* gep = static_cast<const GetElementPtrInst*>(inst);
        auto base = Eval(frame, gep->base());
        if (!base.ok()) {
          return fail(base.status());
        }
        const Type* current =
            static_cast<const PointerType*>(gep->base()->type())->pointee();
        auto idx0 = Eval(frame, gep->index(0));
        if (!idx0.ok()) {
          return fail(idx0.status());
        }
        int64_t offset =
            SignExtend(*idx0, BitWidthOf(gep->index(0)->type())) *
            static_cast<int64_t>(vir::SizeOf(current));
        for (size_t i = 1; i < gep->num_indices(); ++i) {
          if (current->IsArray()) {
            const auto* at = static_cast<const vir::ArrayType*>(current);
            auto idx = Eval(frame, gep->index(i));
            if (!idx.ok()) {
              return fail(idx.status());
            }
            offset += SignExtend(*idx, BitWidthOf(gep->index(i)->type())) *
                      static_cast<int64_t>(vir::SizeOf(at->element()));
            current = at->element();
          } else {
            const auto* st = static_cast<const vir::StructType*>(current);
            auto idx = Eval(frame, gep->index(i));
            if (!idx.ok()) {
              return fail(idx.status());
            }
            unsigned field = static_cast<unsigned>(*idx);
            offset += static_cast<int64_t>(
                vir::StructFieldOffset(st, field));
            current = st->fields()[field];
          }
        }
        frame.Set(inst, *base + static_cast<uint64_t>(offset));
        break;
      }
      case Opcode::kAtomicLIS: {
        const auto* a = static_cast<const AtomicLISInst*>(inst);
        auto addr = Eval(frame, a->pointer());
        auto delta = Eval(frame, a->delta());
        if (!addr.ok() || !delta.ok()) {
          return fail(addr.ok() ? delta.status() : addr.status());
        }
        unsigned width = static_cast<unsigned>(vir::SizeOf(inst->type()));
        auto old = memory_->Read(*addr, width);
        if (!old.ok()) {
          return fail(old.status());
        }
        Status s = memory_->Write(*addr, width, *old + *delta);
        if (!s.ok()) {
          return fail(s);
        }
        frame.Set(inst, *old);
        break;
      }
      case Opcode::kCmpXchg: {
        const auto* c = static_cast<const CmpXchgInst*>(inst);
        auto addr = Eval(frame, c->pointer());
        auto expected = Eval(frame, c->expected());
        auto desired = Eval(frame, c->desired());
        if (!addr.ok() || !expected.ok() || !desired.ok()) {
          return fail(!addr.ok() ? addr.status()
                                 : (!expected.ok() ? expected.status()
                                                   : desired.status()));
        }
        unsigned width = static_cast<unsigned>(vir::SizeOf(inst->type()));
        auto old = memory_->Read(*addr, width);
        if (!old.ok()) {
          return fail(old.status());
        }
        if (*old == *expected) {
          Status s = memory_->Write(*addr, width, *desired);
          if (!s.ok()) {
            return fail(s);
          }
        }
        frame.Set(inst, *old);
        break;
      }
      case Opcode::kWriteBarrier:
        break;  // Single-threaded interpreter: ordering is trivial.
      // --- Calls --------------------------------------------------------------
      case Opcode::kCall: {
        const auto* call = static_cast<const CallInst*>(inst);
        const Function* target = nullptr;
        if (const auto* direct =
                dynamic_cast<const Function*>(call->callee())) {
          target = direct;
        } else {
          auto fp = Eval(frame, call->callee());
          if (!fp.ok()) {
            return fail(fp.status());
          }
          target = FunctionAt(*fp);
          if (target == nullptr) {
            return fail(SafetyViolation(
                StrCat("indirect call to non-code address 0x", std::hex,
                       *fp)));
          }
        }
        std::vector<uint64_t> call_args;
        std::vector<double> call_fargs;
        for (size_t i = 0; i < call->num_args(); ++i) {
          if (call->arg(i)->type()->IsFloat()) {
            auto v = EvalF(frame, call->arg(i));
            if (!v.ok()) {
              return fail(v.status());
            }
            call_fargs.push_back(*v);
            call_args.push_back(0);
          } else {
            auto v = Eval(frame, call->arg(i));
            if (!v.ok()) {
              return fail(v.status());
            }
            call_args.push_back(*v);
          }
        }
        if (inst->type()->IsFloat() &&
            (vir::LookupIntrinsic(target->name()) != Intrinsic::kNone ||
             target->is_declaration())) {
          return fail(sem::FloatCallToIntegerTarget(target->name()));
        }
        bool handled = false;
        auto intrinsic_result = RunIntrinsic(*target, call_args, &handled);
        if (handled) {
          if (!intrinsic_result.ok()) {
            return fail(intrinsic_result.status());
          }
          if (!inst->type()->IsVoid()) {
            frame.Set(inst, *intrinsic_result);
          }
        } else if (!target->is_declaration()) {
          ExecResult sub =
              RunFunction(*target, call_args, call_fargs, depth + 1);
          if (!sub.status.ok()) {
            return fail(sub.status);
          }
          if (!inst->type()->IsVoid()) {
            if (inst->type()->IsFloat()) {
              frame.SetF(inst, sub.fvalue);
            } else {
              frame.Set(inst, sub.value);
            }
          }
        } else {
          auto host = host_fns_.find(target->name());
          if (host == host_fns_.end()) {
            return fail(Unimplemented(
                StrCat("call to unbound external @", target->name())));
          }
          auto r = host->second(*this, call_args);
          if (!r.ok()) {
            return fail(r.status());
          }
          if (!inst->type()->IsVoid()) {
            frame.Set(inst, *r);
          }
        }
        break;
      }
      // --- Control flow ---------------------------------------------------------
      case Opcode::kPhi: {
        // Evaluate the whole phi group against prev_block atomically.
        std::vector<std::pair<const Instruction*, uint64_t>> ivals;
        std::vector<std::pair<const Instruction*, double>> fvals;
        size_t k = index;
        while (k < block->instructions().size() &&
               block->instructions()[k]->opcode() == Opcode::kPhi) {
          const auto* phi =
              static_cast<const PhiInst*>(block->instructions()[k].get());
          const Value* in = phi->ValueForBlock(prev_block);
          if (in == nullptr) {
            return fail(Internal(StrCat("phi in @", fn.name(),
                                        " missing incoming block")));
          }
          if (phi->type()->IsFloat()) {
            auto v = EvalF(frame, in);
            if (!v.ok()) {
              return fail(v.status());
            }
            fvals.emplace_back(phi, *v);
          } else {
            auto v = Eval(frame, in);
            if (!v.ok()) {
              return fail(v.status());
            }
            ivals.emplace_back(phi, *v);
          }
          ++k;
        }
        for (const auto& [phi, v] : ivals) {
          frame.Set(phi, v);
        }
        for (const auto& [phi, v] : fvals) {
          frame.SetF(phi, v);
        }
        steps_ += k - index - 1;
        index = k;
        continue;  // Skip the common ++index below.
      }
      case Opcode::kBr: {
        const auto* br = static_cast<const BranchInst*>(inst);
        const BasicBlock* next;
        if (br->is_conditional()) {
          auto c = Eval(frame, br->condition());
          if (!c.ok()) {
            return fail(c.status());
          }
          next = (*c & 1) != 0 ? br->target(0) : br->target(1);
        } else {
          next = br->target(0);
        }
        prev_block = block;
        block = next;
        index = 0;
        continue;
      }
      case Opcode::kSwitch: {
        const auto* sw = static_cast<const SwitchInst*>(inst);
        auto v = Eval(frame, sw->condition());
        if (!v.ok()) {
          return fail(v.status());
        }
        const BasicBlock* next = sw->default_target();
        unsigned bits = BitWidthOf(sw->condition()->type());
        for (size_t i = 0; i < sw->num_cases(); ++i) {
          if (MaskToWidth(sw->case_value(i), bits) == MaskToWidth(*v, bits)) {
            next = sw->case_target(i);
            break;
          }
        }
        prev_block = block;
        block = next;
        index = 0;
        continue;
      }
      case Opcode::kRet: {
        const auto* ret = static_cast<const RetInst*>(inst);
        if (ret->has_value()) {
          if (ret->value()->type()->IsFloat()) {
            auto v = EvalF(frame, ret->value());
            if (!v.ok()) {
              return fail(v.status());
            }
            result.fvalue = *v;
          } else {
            auto v = Eval(frame, ret->value());
            if (!v.ok()) {
              return fail(v.status());
            }
            result.value = *v;
          }
        }
        stack_top_ = saved_stack;
        result.status = OkStatus();
        return result;
      }
      case Opcode::kUnreachable:
        return fail(Internal(StrCat("executed unreachable in @", fn.name())));
    }
    ++index;
  }
}

}  // namespace sva::svm
