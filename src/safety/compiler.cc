#include "src/safety/compiler.h"

#include <map>
#include <set>

#include "src/analysis/callgraph.h"
#include "src/analysis/pointsto.h"
#include "src/support/strings.h"
#include "src/vir/builder.h"
#include "src/vir/check_analysis.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::safety {

using analysis::AllocatorInfo;
using analysis::CallGraph;
using analysis::PointsToAnalysis;
using analysis::PointsToNode;
using vir::AllocaInst;
using vir::BasicBlock;
using vir::CallInst;
using vir::ConstantInt;
using vir::FreeInst;
using vir::Function;
using vir::GetElementPtrInst;
using vir::GlobalVariable;
using vir::Instruction;
using vir::IRBuilder;
using vir::LoadInst;
using vir::MallocInst;
using vir::MallocInst;
using vir::Module;
using vir::Opcode;
using vir::PointerType;
using vir::StoreInst;
using vir::Type;
using vir::Value;

namespace {

// The allocator size-query function for pool allocators (Section 4.4: "each
// allocator must provide a function that returns the size of an allocation").
constexpr const char* kKmemCacheSizeFn = "kmem_cache_size";

class SafetyCompiler {
 public:
  SafetyCompiler(Module& module, const SafetyCompilerOptions& options)
      : module_(module), options_(options) {}

  Result<SafetyReport> Run() {
    if (options_.run_cloning) {
      report_.clone_report = analysis::CloneForPrecision(module_);
    }
    pta_ = std::make_unique<PointsToAnalysis>(module_, options_.analysis);
    SVA_RETURN_IF_ERROR(pta_->Run());
    MergeKernelPools();
    AssignMetapools();
    callgraph_ = std::make_unique<CallGraph>(*pta_);
    if (options_.run_devirt) {
      report_.devirt_report = analysis::Devirtualize(module_, *callgraph_);
    }
    PromoteEscapingAllocas();
    InstrumentAllocations();
    InstrumentGlobals();
    InstrumentStack();
    InsertBoundsChecks();
    InsertLoadStoreChecks();
    InsertIndirectChecks();
    report_.eliminated = EliminateChecks(module_, options_.elimination);
    return report_;
  }

 private:
  // --- Metapool inference ----------------------------------------------------

  void MergeKernelPools() {
    // All partitions whose objects come from the same kernel pool (or the
    // same ordinary-allocator size class) must form one metapool
    // (Section 4.3): memory reuse within a kernel pool would otherwise let
    // a dangling pointer cross metapools.
    std::map<std::string, PointsToNode*> first_by_source;
    for (PointsToNode* node : pta_->graph().CanonicalNodes()) {
      for (const std::string& source : node->allocator_sources()) {
        auto [it, inserted] = first_by_source.try_emplace(source, node);
        if (!inserted) {
          PointsToNode* merged = pta_->graph().Unify(it->second, node);
          it->second = merged;
          ++report_.merged_by_kernel_pools;
        }
      }
    }
  }

  const std::string& PoolNameOf(PointsToNode* node) {
    static const std::string kEmpty;
    if (node == nullptr) {
      return kEmpty;
    }
    node = pta_->graph().Find(node);
    auto it = pool_names_.find(node);
    return it == pool_names_.end() ? kEmpty : it->second;
  }

  void AssignMetapools() {
    // Collect every pointer value's node plus object nodes.
    auto ensure_pool = [&](PointsToNode* node) {
      node = pta_->graph().Find(node);
      if (pool_names_.count(node) != 0) {
        return;
      }
      std::string name = StrCat("MP", pool_names_.size() + 1);
      pool_names_[node] = name;
      vir::MetapoolDecl& decl = module_.DeclareMetapool(name);
      decl.type_homogeneous = node->IsTypeHomogeneous();
      decl.element_type = node->element_type();
      decl.complete = node->IsComplete();
      decl.user_reachable = node->has_flag(PointsToNode::kUserReachable);
      vir::MetapoolHandle(module_, name);
      ++report_.metapools;
      if (decl.type_homogeneous) {
        ++report_.th_metapools;
      }
      if (decl.complete) {
        ++report_.complete_metapools;
      }
    };

    // Number pools in program order (globals, then each function's args and
    // instructions). value_nodes() is keyed by Value pointer, so iterating
    // it directly would make MP numbering depend on heap layout and two
    // compiles of the same module could disagree on pool names.
    const auto& nodes = pta_->graph().value_nodes();
    // Snapshot the walk first: ensure_pool creates metapool handle globals,
    // which would invalidate iterators into module_.globals().
    std::vector<const Value*> ordered;
    for (const auto& global : module_.globals()) {
      ordered.push_back(global.get());
    }
    for (const auto& fn : module_.functions()) {
      for (const auto& arg : fn->args()) {
        ordered.push_back(arg.get());
      }
      for (const auto& block : fn->blocks()) {
        for (const auto& inst : block->instructions()) {
          ordered.push_back(inst.get());
        }
      }
    }
    for (const Value* v : ordered) {
      if (!v->type()->IsPointer()) {
        continue;
      }
      auto it = nodes.find(v);
      if (it != nodes.end()) {
        ensure_pool(it->second);
      }
    }
    // Sweep anything the walk missed (e.g. pointer-typed constants) so every
    // node still gets a pool.
    for (const auto& [value, node] : nodes) {
      if (value->type()->IsPointer()) {
        ensure_pool(node);
      }
    }
    // Annotate all pointer values with their metapool (the Section 5 type
    // qualifiers).
    for (const auto& [value, node] : pta_->graph().value_nodes()) {
      if (!value->type()->IsPointer()) {
        continue;
      }
      const std::string& name = PoolNameOf(node);
      if (!name.empty()) {
        module_.AnnotateValue(value, name);
      }
    }
  }

  GlobalVariable* HandleFor(const std::string& pool_name) {
    return vir::MetapoolHandle(module_, pool_name);
  }

  const vir::MetapoolDecl* DeclFor(const Value* v) const {
    const std::string& name = module_.MetapoolOf(v);
    return name.empty() ? nullptr : module_.FindMetapool(name);
  }

  Value* ToI64(IRBuilder& b, Value* v) {
    if (v->type() == module_.types().I64()) {
      return v;
    }
    return b.CreateZExt(v, module_.types().I64());
  }

  // --- Stack-to-heap promotion (Section 4.3) -----------------------------------

  bool AllocaEscapes(Function& fn, const AllocaInst* alloca) {
    for (Instruction* inst : fn.AllInstructions()) {
      if (const auto* store = dynamic_cast<const StoreInst*>(inst)) {
        if (store->stored_value() == alloca) {
          return true;
        }
      } else if (const auto* ret = dynamic_cast<const vir::RetInst*>(inst)) {
        if (ret->has_value() && ret->value() == alloca) {
          return true;
        }
      }
    }
    return false;
  }

  void PromoteEscapingAllocas() {
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration() || fn->blocks().empty()) {
        continue;
      }
      BasicBlock* entry = fn->entry();
      std::vector<std::pair<size_t, AllocaInst*>> to_promote;
      for (size_t i = 0; i < entry->instructions().size(); ++i) {
        auto* alloca =
            dynamic_cast<AllocaInst*>(entry->instructions()[i].get());
        if (alloca != nullptr && AllocaEscapes(*fn, alloca)) {
          to_promote.emplace_back(i, alloca);
        }
      }
      for (auto& [index, alloca] : to_promote) {
        auto promoted = std::make_unique<MallocInst>(
            static_cast<const PointerType*>(alloca->type()),
            alloca->allocated_type(), alloca->count(),
            alloca->name() + ".promoted");
        MallocInst* malloc_inst = promoted.get();
        const std::string& pool = module_.MetapoolOf(alloca);
        std::unique_ptr<Instruction> old =
            entry->ReplaceAt(index, std::move(promoted));
        fn->ReplaceAllUsesWith(old.get(), malloc_inst);
        if (!pool.empty()) {
          module_.AnnotateValue(malloc_inst, pool);
        }
        // Free at every return: dangling pointers to it are rendered
        // harmless by the metapool reuse rules, like any heap object.
        for (const auto& bb : fn->blocks()) {
          Instruction* term = bb->terminator();
          if (term != nullptr && term->opcode() == Opcode::kRet) {
            bb->InsertAt(bb->IndexOf(term),
                         std::make_unique<FreeInst>(module_.types().VoidTy(),
                                                    malloc_inst));
          }
        }
        ++report_.stack_promotions;
      }
    }
  }

  // --- Object registration ------------------------------------------------------

  const AllocatorInfo* AllocatorByName(const std::string& name) const {
    for (const AllocatorInfo& info : options_.analysis.allocators) {
      if (info.alloc_fn == name) {
        return &info;
      }
    }
    return nullptr;
  }
  const AllocatorInfo* FreeFnByName(const std::string& name) const {
    for (const AllocatorInfo& info : options_.analysis.allocators) {
      if (!info.free_fn.empty() && info.free_fn == name) {
        return &info;
      }
    }
    return nullptr;
  }

  void InstrumentAllocations() {
    Function* reg = DeclareIntrinsic(module_, vir::Intrinsic::kPchkRegObj);
    Function* drop = DeclareIntrinsic(module_, vir::Intrinsic::kPchkDropObj);
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration()) {
        continue;
      }
      for (const auto& bb : fn->blocks()) {
        // Snapshot: insertion invalidates indices, so collect first.
        std::vector<Instruction*> worklist;
        for (const auto& inst : bb->instructions()) {
          worklist.push_back(inst.get());
        }
        for (Instruction* inst : worklist) {
          if (auto* malloc_inst = dynamic_cast<MallocInst*>(inst)) {
            const std::string& pool = module_.MetapoolOf(inst);
            if (pool.empty()) {
              continue;
            }
            IRBuilder b(module_);
            b.SetInsertPoint(bb.get(), bb->IndexOf(inst) + 1);
            uint64_t elem = vir::SizeOf(malloc_inst->allocated_type());
            Value* size;
            if (const auto* c =
                    dynamic_cast<const ConstantInt*>(malloc_inst->count())) {
              uint64_t total = elem * c->zext_value();
              size = module_.GetInt64(total);
              static_sizes_[inst] = total;
            } else {
              size = b.CreateMul(ToI64(b, malloc_inst->count()),
                                 module_.GetInt64(elem));
            }
            b.CreateCall(reg, {HandleFor(pool),
                               CastToI8Ptr(module_, b, inst), size});
            ++report_.reg_obj;
            RecordRegisteredSite(inst);
          } else if (auto* free_inst = dynamic_cast<FreeInst*>(inst)) {
            const std::string& pool =
                module_.MetapoolOf(free_inst->pointer());
            if (pool.empty()) {
              continue;
            }
            IRBuilder b(module_);
            b.SetInsertPoint(bb.get(), bb->IndexOf(inst));
            b.CreateCall(drop, {HandleFor(pool),
                                CastToI8Ptr(module_, b, free_inst->pointer())});
            ++report_.drop_obj;
          } else if (auto* call = dynamic_cast<CallInst*>(inst)) {
            Function* callee = call->called_function();
            if (callee == nullptr) {
              continue;
            }
            if (const AllocatorInfo* info = AllocatorByName(callee->name())) {
              const std::string& pool = module_.MetapoolOf(inst);
              if (pool.empty()) {
                continue;
              }
              IRBuilder b(module_);
              b.SetInsertPoint(bb.get(), bb->IndexOf(inst) + 1);
              Value* size = nullptr;
              if (info->size_arg >= 0 &&
                  static_cast<size_t>(info->size_arg) < call->num_args()) {
                size = ToI64(b, call->arg(
                                    static_cast<size_t>(info->size_arg)));
                if (const auto* c = dynamic_cast<const ConstantInt*>(size)) {
                  static_sizes_[inst] = c->zext_value();
                }
              } else if (info->is_pool && info->pool_arg >= 0) {
                // Pool allocators report object sizes via the allocator's
                // size query (Section 4.4).
                Function* size_fn = module_.GetOrDeclareFunction(
                    kKmemCacheSizeFn,
                    module_.types().FunctionTy(
                        module_.types().I64(),
                        {module_.types().PointerTo(module_.types().I8())}));
                Value* desc = call->arg(static_cast<size_t>(info->pool_arg));
                size = b.CreateCall(size_fn,
                                    {CastToI8Ptr(module_, b, desc)});
              } else {
                size = module_.GetInt64(0);
              }
              b.CreateCall(reg,
                           {HandleFor(pool), CastToI8Ptr(module_, b, inst),
                            size});
              ++report_.reg_obj;
              RecordRegisteredSite(inst);
            } else if (FreeFnByName(callee->name()) != nullptr) {
              const AllocatorInfo* info = FreeFnByName(callee->name());
              size_t ptr_arg = info->is_pool ? 1 : 0;
              if (ptr_arg >= call->num_args()) {
                continue;
              }
              Value* ptr = call->arg(ptr_arg);
              const std::string& pool = module_.MetapoolOf(ptr);
              if (pool.empty()) {
                continue;
              }
              IRBuilder b(module_);
              b.SetInsertPoint(bb.get(), bb->IndexOf(inst));
              b.CreateCall(drop, {HandleFor(pool),
                                  CastToI8Ptr(module_, b, ptr)});
              ++report_.drop_obj;
            }
          }
        }
      }
    }
    report_.allocation_sites = pta_->allocation_sites().size();
  }

  void RecordRegisteredSite(const Instruction* inst) {
    if (registered_sites_.insert(inst).second) {
      ++report_.allocation_sites_registered;
    }
  }

  void InstrumentGlobals() {
    // Registrations go into a synthesized entry function, which the SVM
    // invokes at load time (the paper places them in the kernel "entry").
    std::vector<GlobalVariable*> to_register;
    for (const auto& gv : module_.globals()) {
      if (vir::IsMetapoolHandle(gv.get())) {
        continue;
      }
      const std::string& pool = module_.MetapoolOf(gv.get());
      if (pool.empty()) {
        continue;
      }
      if (gv->is_external()) {
        // External objects stay unregistered in partial builds (incomplete
        // partitions). When the analysis treated them as complete
        // (whole-program mode), the kernel registers them before first use
        // — the pseudo_alloc idiom of Section 4.7.
        const vir::MetapoolDecl* decl = module_.FindMetapool(pool);
        if (decl == nullptr || !decl->complete) {
          continue;
        }
      }
      to_register.push_back(gv.get());
    }
    if (to_register.empty()) {
      return;
    }
    Function* init = module_.GetFunction(kInitFunctionName);
    if (init == nullptr) {
      init = module_.CreateFunction(
          kInitFunctionName,
          module_.types().FunctionTy(module_.types().VoidTy(), {}),
          /*is_declaration=*/false);
      init->CreateBlock("entry");
      IRBuilder b(module_);
      b.SetInsertPoint(init->entry());
      b.CreateRetVoid();
    }
    Function* reg = DeclareIntrinsic(module_, vir::Intrinsic::kPchkRegObj);
    IRBuilder b(module_);
    b.SetInsertPoint(init->entry(), 0);
    for (GlobalVariable* gv : to_register) {
      const std::string& pool = module_.MetapoolOf(gv);
      b.CreateCall(reg, {HandleFor(pool), CastToI8Ptr(module_, b, gv),
                         module_.GetInt64(vir::SizeOf(gv->value_type()))});
      ++report_.reg_obj;
      ++report_.global_registrations;
    }
  }

  void InstrumentStack() {
    Function* reg = DeclareIntrinsic(module_, vir::Intrinsic::kPchkRegObj);
    Function* drop = DeclareIntrinsic(module_, vir::Intrinsic::kPchkDropObj);
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration() || fn->blocks().empty()) {
        continue;
      }
      BasicBlock* entry = fn->entry();
      std::vector<AllocaInst*> allocas;
      for (const auto& inst : entry->instructions()) {
        if (auto* a = dynamic_cast<AllocaInst*>(inst.get())) {
          if (!module_.MetapoolOf(a).empty()) {
            allocas.push_back(a);
          }
        }
      }
      for (AllocaInst* a : allocas) {
        const std::string& pool = module_.MetapoolOf(a);
        IRBuilder b(module_);
        b.SetInsertPoint(entry, entry->IndexOf(a) + 1);
        uint64_t elem = vir::SizeOf(a->allocated_type());
        Value* size;
        if (const auto* c = dynamic_cast<const ConstantInt*>(a->count())) {
          uint64_t total = elem * c->zext_value();
          size = module_.GetInt64(total);
          static_sizes_[a] = total;
        } else {
          size = b.CreateMul(ToI64(b, a->count()), module_.GetInt64(elem));
        }
        b.CreateCall(reg,
                     {HandleFor(pool), CastToI8Ptr(module_, b, a), size});
        ++report_.reg_obj;
        ++report_.stack_registrations;
        // Deregister on every return (Section 4.1: stack objects are
        // deregistered when returning from the parent function).
        for (const auto& bb : fn->blocks()) {
          Instruction* term = bb->terminator();
          if (term != nullptr && term->opcode() == Opcode::kRet) {
            IRBuilder rb(module_);
            rb.SetInsertPoint(bb.get(), bb->IndexOf(term));
            rb.CreateCall(drop,
                          {HandleFor(pool), CastToI8Ptr(module_, rb, a)});
            ++report_.drop_obj;
          }
        }
      }
    }
  }

  // --- Bounds checks --------------------------------------------------------------

  // Classification of one GEP for the Table 9 metrics.
  void ClassifyGep(const GetElementPtrInst* gep, bool incomplete, bool th) {
    const Type* current =
        static_cast<const PointerType*>(gep->base()->type())->pointee();
    bool is_struct_index = false;
    bool is_array_index = false;
    const auto* lead = dynamic_cast<const ConstantInt*>(gep->index(0));
    if (lead == nullptr || lead->zext_value() != 0) {
      is_array_index = true;  // Pointer arithmetic over the object.
    }
    for (size_t i = 1; i < gep->num_indices(); ++i) {
      if (current->IsStruct()) {
        is_struct_index = true;
        const auto* ci = dynamic_cast<const ConstantInt*>(gep->index(i));
        current = static_cast<const vir::StructType*>(current)
                      ->fields()[ci->zext_value()];
      } else if (current->IsArray()) {
        is_array_index = true;
        current = static_cast<const vir::ArrayType*>(current)->element();
      }
    }
    auto count = [&](AccessMetrics& m) {
      ++m.total;
      if (incomplete) {
        ++m.to_incomplete;
      }
      if (th) {
        ++m.to_type_safe;
      }
    };
    if (is_struct_index) {
      count(report_.struct_indexing);
    }
    if (is_array_index) {
      count(report_.array_indexing);
    }
  }

  void InsertBoundsChecks() {
    Function* boundscheck =
        DeclareIntrinsic(module_, vir::Intrinsic::kBoundsCheck);
    Function* direct =
        DeclareIntrinsic(module_, vir::Intrinsic::kBoundsCheckDirect);
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration()) {
        continue;
      }
      for (const auto& bb : fn->blocks()) {
        std::vector<GetElementPtrInst*> geps;
        for (const auto& inst : bb->instructions()) {
          if (auto* gep = dynamic_cast<GetElementPtrInst*>(inst.get())) {
            if (inserted_values_.count(gep) == 0) {
              geps.push_back(gep);
            }
          }
        }
        for (GetElementPtrInst* gep : geps) {
          const vir::MetapoolDecl* decl = DeclFor(gep->base());
          bool incomplete = decl != nullptr && !decl->complete;
          bool th = decl != nullptr && decl->type_homogeneous;
          ClassifyGep(gep, incomplete, th);
          if (decl == nullptr) {
            continue;
          }
          if (options_.elide_static_safe_bounds &&
              vir::IsStaticallyInBounds(*gep)) {
            ++report_.elided_bounds_checks;
            continue;
          }
          IRBuilder b(module_);
          b.SetInsertPoint(bb.get(), bb->IndexOf(gep) + 1);
          auto size_it = static_sizes_.find(
              dynamic_cast<const Instruction*>(gep->base()));
          if (options_.use_direct_bounds && size_it != static_sizes_.end()) {
            // The Figure 2 line-19 case: bounds known from the allocation,
            // no splay lookup needed.
            Value* base_cast = CastToI8Ptr(module_, b, gep->base());
            Value* end = b.CreateGEP(base_cast,
                                     {module_.GetInt64(size_it->second)});
            module_.AnnotateValue(end, module_.MetapoolOf(gep->base()));
            inserted_values_.insert(end);
            b.CreateCall(direct,
                         {base_cast, CastToI8Ptr(module_, b, gep), end});
            ++report_.direct_bounds_checks;
          } else {
            b.CreateCall(boundscheck,
                         {HandleFor(module_.MetapoolOf(gep->base())),
                          CastToI8Ptr(module_, b, gep->base()),
                          CastToI8Ptr(module_, b, gep)});
            ++report_.bounds_checks;
          }
        }
      }
    }
  }

  // --- Load-store checks -------------------------------------------------------------

  void InsertLoadStoreChecks() {
    Function* lscheck = DeclareIntrinsic(module_, vir::Intrinsic::kLSCheck);
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration()) {
        continue;
      }
      for (const auto& bb : fn->blocks()) {
        std::vector<Instruction*> accesses;
        for (const auto& inst : bb->instructions()) {
          if (inserted_values_.count(inst.get()) != 0) {
            continue;
          }
          if (inst->opcode() == Opcode::kLoad ||
              inst->opcode() == Opcode::kStore) {
            accesses.push_back(inst.get());
          }
        }
        for (Instruction* inst : accesses) {
          Value* ptr = inst->opcode() == Opcode::kLoad
                           ? static_cast<LoadInst*>(inst)->pointer()
                           : static_cast<StoreInst*>(inst)->pointer();
          const vir::MetapoolDecl* decl = DeclFor(ptr);
          bool incomplete = decl == nullptr || !decl->complete;
          bool th = decl != nullptr && decl->type_homogeneous;
          AccessMetrics& metrics = inst->opcode() == Opcode::kLoad
                                       ? report_.loads
                                       : report_.stores;
          ++metrics.total;
          if (incomplete) {
            ++metrics.to_incomplete;
          }
          if (th) {
            ++metrics.to_type_safe;
          }
          if (decl == nullptr) {
            continue;
          }
          if (!decl->complete) {
            // No load-store checks are possible on incomplete partitions
            // (Section 4.5, "reduced checks").
            ++report_.reduced_ls_checks;
            continue;
          }
          if (decl->type_homogeneous && options_.elide_th_loadstore) {
            // Dereferences within TH pools need no checks (Section 4.1).
            ++report_.elided_th_ls_checks;
            continue;
          }
          IRBuilder b(module_);
          b.SetInsertPoint(bb.get(), bb->IndexOf(inst));
          b.CreateCall(lscheck, {HandleFor(module_.MetapoolOf(ptr)),
                                 CastToI8Ptr(module_, b, ptr)});
          ++report_.ls_checks;
        }
      }
    }
  }

  // --- Indirect call checks -------------------------------------------------------------

  void InsertIndirectChecks() {
    Function* check = DeclareIntrinsic(module_, vir::Intrinsic::kIndirectCheck);
    for (const CallInst* site : callgraph_->indirect_sites()) {
      auto* call = const_cast<CallInst*>(site);
      if (call->called_function() != nullptr) {
        continue;  // Devirtualized in the meantime.
      }
      const vir::MetapoolDecl* decl = DeclFor(call->callee());
      if (decl != nullptr && decl->type_homogeneous && decl->complete) {
        // Function pointers loaded from TH pools cannot have been forged
        // (all writes to such pools are checked), so no check is needed.
        continue;
      }
      std::vector<std::string> targets;
      for (const Function* callee : callgraph_->Callees(call)) {
        targets.push_back(callee->name());
      }
      uint64_t set_id = module_.AddTargetSet(std::move(targets));
      BasicBlock* bb = call->parent();
      IRBuilder b(module_);
      b.SetInsertPoint(bb, bb->IndexOf(call));
      b.CreateCall(check, {CastToI8Ptr(module_, b, call->callee()),
                           module_.GetInt64(set_id)});
      ++report_.indirect_checks;
    }
  }

  Module& module_;
  const SafetyCompilerOptions& options_;
  SafetyReport report_;
  std::unique_ptr<PointsToAnalysis> pta_;
  std::unique_ptr<CallGraph> callgraph_;
  std::map<PointsToNode*, std::string> pool_names_;
  std::map<const Instruction*, uint64_t> static_sizes_;
  std::set<const Instruction*> registered_sites_;
  std::set<const Value*> inserted_values_;
};

}  // namespace

Result<SafetyReport> RunSafetyCompiler(vir::Module& module,
                                       const SafetyCompilerOptions& options) {
  SafetyCompiler compiler(module, options);
  return compiler.Run();
}

}  // namespace sva::safety
