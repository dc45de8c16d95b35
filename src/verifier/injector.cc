#include "src/verifier/injector.h"

#include <map>
#include <vector>

#include "src/support/strings.h"
#include "src/vir/check_analysis.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::verifier {

using vir::CallInst;
using vir::GlobalVariable;
using vir::Instruction;
using vir::LoadInst;
using vir::Module;
using vir::Opcode;
using vir::StoreInst;
using vir::Value;

const char* BugKindName(BugKind kind) {
  switch (kind) {
    case BugKind::kWrongAlias:
      return "incorrect-variable-aliasing";
    case BugKind::kWrongEdge:
      return "incorrect-inter-node-edge";
    case BugKind::kFalseTypeHomogeneity:
      return "incorrect-type-homogeneity";
    case BugKind::kInsufficientMerging:
      return "insufficient-node-merging";
    case BugKind::kDroppedCheck:
      return "dropped-run-time-check";
  }
  return "unknown";
}

namespace {

// A different declared pool than `not_this`, preferring variety by seed.
std::string OtherPool(const Module& module, const std::string& not_this,
                      uint64_t seed) {
  std::vector<std::string> pools;
  for (const auto& [name, decl] : module.metapools()) {
    (void)decl;
    if (name != not_this) {
      pools.push_back(name);
    }
  }
  if (pools.empty()) {
    return "";
  }
  return pools[seed % pools.size()];
}

Status InjectWrongAlias(Module& module, uint64_t seed) {
  // Re-annotate a pool-preserving instruction's result.
  std::vector<Instruction*> candidates;
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!inst->type()->IsPointer()) {
          continue;
        }
        Opcode op = inst->opcode();
        if ((op == Opcode::kBitcast || op == Opcode::kGetElementPtr) &&
            !module.MetapoolOf(inst.get()).empty()) {
          candidates.push_back(inst.get());
        }
      }
    }
  }
  if (candidates.empty()) {
    return NotFound("no aliasing injection site");
  }
  Instruction* victim = candidates[seed % candidates.size()];
  std::string wrong =
      OtherPool(module, module.MetapoolOf(victim), seed / 7 + 1);
  if (wrong.empty()) {
    return NotFound("module has a single metapool");
  }
  module.AnnotateValue(victim, wrong);
  return OkStatus();
}

Status InjectWrongEdge(Module& module, uint64_t seed) {
  // Bend the pointee pool of one pointer-load so the derived points-to
  // nesting becomes inconsistent. To guarantee inconsistency we pick a load
  // whose holder pool carries at least one other pointer edge use.
  struct Candidate {
    Instruction* load;
  };
  std::map<std::string, int> edge_uses;
  std::vector<Instruction*> loads;
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (const auto* load = dynamic_cast<const LoadInst*>(inst.get())) {
          if (inst->type()->IsPointer() &&
              !module.MetapoolOf(load->pointer()).empty() &&
              !module.MetapoolOf(inst.get()).empty()) {
            ++edge_uses[module.MetapoolOf(load->pointer())];
            loads.push_back(inst.get());
          }
        } else if (const auto* store =
                       dynamic_cast<const StoreInst*>(inst.get())) {
          if (store->stored_value()->type()->IsPointer() &&
              !module.MetapoolOf(store->pointer()).empty() &&
              !module.MetapoolOf(store->stored_value()).empty()) {
            ++edge_uses[module.MetapoolOf(store->pointer())];
          }
        }
      }
    }
  }
  std::vector<Instruction*> candidates;
  for (Instruction* load : loads) {
    const auto* l = static_cast<const LoadInst*>(load);
    if (edge_uses[module.MetapoolOf(l->pointer())] >= 2) {
      candidates.push_back(load);
    }
  }
  if (candidates.empty()) {
    return NotFound("no edge injection site");
  }
  Instruction* victim = candidates[seed % candidates.size()];
  std::string wrong =
      OtherPool(module, module.MetapoolOf(victim), seed / 3 + 1);
  if (wrong.empty()) {
    return NotFound("module has a single metapool");
  }
  module.AnnotateValue(victim, wrong);
  return OkStatus();
}

Status InjectFalseTH(Module& module, uint64_t seed) {
  // Find a pool with at least one load/store access and claim it is TH with
  // a type that does not contain the accessed type.
  std::map<std::string, const vir::Type*> accessed;
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (const auto* load = dynamic_cast<const LoadInst*>(inst.get())) {
          const std::string& pool = module.MetapoolOf(load->pointer());
          if (!pool.empty()) {
            accessed.emplace(pool, inst->type());
          }
        }
      }
    }
  }
  std::vector<std::pair<std::string, const vir::Type*>> candidates(
      accessed.begin(), accessed.end());
  if (candidates.empty()) {
    return NotFound("no TH injection site");
  }
  auto& [pool, type] = candidates[seed % candidates.size()];
  vir::MetapoolDecl& decl = module.mutable_metapools()[pool];
  decl.name = pool;
  decl.type_homogeneous = true;
  // A bogus element type guaranteed not to contain the accessed type: a
  // float of a width class the access does not use.
  const vir::Type* bogus = module.types().F64();
  if (type->IsFloat() &&
      static_cast<const vir::FloatType*>(type)->bits() == 64) {
    bogus = module.types().F32();
  }
  decl.element_type = bogus;
  return OkStatus();
}

Status InjectInsufficientMerging(Module& module, uint64_t seed) {
  // Split a partition: the registered object keeps its annotation while the
  // registration handle moves to a freshly invented pool, as if the
  // analysis had failed to merge the two nodes backing one kernel pool.
  std::vector<CallInst*> candidates;
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        auto* call = dynamic_cast<CallInst*>(inst.get());
        if (call == nullptr || call->called_function() == nullptr) {
          continue;
        }
        vir::Intrinsic which =
            vir::LookupIntrinsic(call->called_function()->name());
        if ((which == vir::Intrinsic::kPchkRegObj ||
             which == vir::Intrinsic::kLSCheck ||
             which == vir::Intrinsic::kBoundsCheck) &&
            call->num_args() >= 2 &&
            !module.MetapoolOf(call->arg(1)).empty()) {
          candidates.push_back(call);
        }
      }
    }
  }
  if (candidates.empty()) {
    return NotFound("no merging injection site");
  }
  CallInst* victim = candidates[seed % candidates.size()];
  const std::string& old_pool = module.MetapoolOf(victim->arg(1));
  std::string split_name = StrCat(old_pool, ".split", seed % 97);
  const vir::MetapoolDecl* old_decl = module.FindMetapool(old_pool);
  vir::MetapoolDecl& split = module.DeclareMetapool(split_name);
  if (old_decl != nullptr) {
    split.type_homogeneous = old_decl->type_homogeneous;
    split.element_type = old_decl->element_type;
    split.complete = old_decl->complete;
  }
  // Operand 0 is the callee; operand 1 is the metapool handle argument.
  GlobalVariable* handle = vir::MetapoolHandle(module, split_name);
  victim->set_operand(1, handle);
  return OkStatus();
}

Status InjectDroppedCheck(Module& module, uint64_t seed) {
  std::vector<const Instruction*> candidates;
  for (const auto& fn : module.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        vir::Intrinsic which = vir::IntrinsicOf(*inst);
        if (which == vir::Intrinsic::kBoundsCheck ||
            which == vir::Intrinsic::kBoundsCheckDirect ||
            which == vir::Intrinsic::kLSCheck ||
            which == vir::Intrinsic::kIndirectCheck) {
          candidates.push_back(inst.get());
        }
      }
    }
  }
  if (candidates.empty()) {
    return NotFound("no run-time check to drop");
  }
  // Spread the seeds over the module rather than over one function.
  const Instruction* victim = candidates[(seed * 7919) % candidates.size()];
  victim->parent()->Remove(victim);
  return OkStatus();
}

}  // namespace

Status InjectBug(Module& module, BugKind kind, uint64_t seed) {
  switch (kind) {
    case BugKind::kWrongAlias:
      return InjectWrongAlias(module, seed);
    case BugKind::kWrongEdge:
      return InjectWrongEdge(module, seed);
    case BugKind::kFalseTypeHomogeneity:
      return InjectFalseTH(module, seed);
    case BugKind::kInsufficientMerging:
      return InjectInsufficientMerging(module, seed);
    case BugKind::kDroppedCheck:
      return InjectDroppedCheck(module, seed);
  }
  return InvalidArgument("unknown bug kind");
}

}  // namespace sva::verifier
