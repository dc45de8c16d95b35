#include "src/verifier/typechecker.h"

#include <map>

#include "src/support/strings.h"
#include "src/verifier/coverage.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::verifier {

using vir::CallInst;
using vir::Function;
using vir::GetElementPtrInst;
using vir::GlobalVariable;
using vir::Instruction;
using vir::Intrinsic;
using vir::LoadInst;
using vir::Module;
using vir::Opcode;
using vir::PhiInst;
using vir::SelectInst;
using vir::StoreInst;
using vir::Type;
using vir::Value;

namespace {

class TypeChecker {
 public:
  TypeChecker(const Module& module, const TypeCheckOptions& options)
      : module_(module), options_(options) {}

  TypeCheckResult Run() {
    for (const auto& gv : module_.globals()) {
      CheckDeclared(gv.get(), "global");
    }
    for (const auto& fn : module_.functions()) {
      if (fn->is_declaration()) {
        continue;
      }
      current_fn_ = fn.get();
      for (const auto& arg : fn->args()) {
        CheckDeclared(arg.get(), "argument");
      }
      for (const auto& bb : fn->blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (!result_.ok && !options_.collect_all) {
            return result_;
          }
          CheckInstruction(*inst);
        }
      }
      // R8 applies once a safety compiler has partitioned the module.
      if (!module_.metapools().empty() &&
          (result_.ok || options_.collect_all)) {
        CheckCoverage(module_, *fn, [this](std::string msg) {
          Error(std::move(msg));
        });
      }
    }
    return result_;
  }

 private:
  void Error(std::string msg) {
    result_.ok = false;
    if (current_fn_ != nullptr) {
      msg = StrCat("@", current_fn_->name(), ": ", msg);
    }
    result_.errors.push_back(std::move(msg));
  }

  const std::string& PoolOf(const Value* v) const {
    return module_.MetapoolOf(v);
  }

  void CheckDeclared(const Value* v, const char* what) {
    const std::string& pool = PoolOf(v);
    if (!pool.empty() && module_.FindMetapool(pool) == nullptr) {
      Error(StrCat(what, " annotated with undeclared metapool ", pool));
    }
  }

  // R2: result pool must match the operand pool when both are annotated.
  void CheckPreserves(const Instruction& inst, const Value* operand) {
    const std::string& rp = PoolOf(&inst);
    const std::string& op = PoolOf(operand);
    if (!rp.empty() && !op.empty() && rp != op) {
      Error(StrCat(vir::OpcodeName(inst.opcode()), " crosses metapools: ",
                   "operand in ", op, ", result in ", rp));
    }
  }

  // R3: consistent pointee pool per pool, derived while checking.
  void CheckEdge(const std::string& holder_pool,
                 const std::string& pointee_pool, const char* what) {
    if (holder_pool.empty() || pointee_pool.empty()) {
      return;
    }
    auto [it, inserted] = pointee_pools_.try_emplace(holder_pool,
                                                     pointee_pool);
    if (!inserted && it->second != pointee_pool) {
      Error(StrCat("inconsistent points-to edge from ", holder_pool, ": ",
                   what, " uses ", pointee_pool, " but earlier uses ",
                   it->second));
    }
  }

  // R7: no pointer into a classified pool may be written into an object of
  // an unclassified pool (information-flow qualifier, Section 9).
  void CheckFlow(const std::string& holder_pool,
                 const std::string& stored_pool) {
    if (holder_pool.empty() || stored_pool.empty()) {
      return;
    }
    const vir::MetapoolDecl* holder = module_.FindMetapool(holder_pool);
    const vir::MetapoolDecl* stored = module_.FindMetapool(stored_pool);
    if (holder == nullptr || stored == nullptr) {
      return;
    }
    if (stored->classified && !holder->classified) {
      Error(StrCat("information-flow violation: pointer into classified "
                   "pool ",
                   stored_pool, " stored into unclassified pool ",
                   holder_pool));
    }
  }

  // R6: accesses through TH pools must use member types of the element.
  void CheckTHAccess(const Value* ptr, const Type* accessed) {
    const std::string& pool = PoolOf(ptr);
    if (pool.empty()) {
      return;
    }
    const vir::MetapoolDecl* decl = module_.FindMetapool(pool);
    if (decl == nullptr || !decl->type_homogeneous ||
        decl->element_type == nullptr) {
      return;
    }
    if (!vir::TypeContainsMember(decl->element_type, accessed)) {
      Error(StrCat("type-homogeneity violation: pool ", pool, " declared ",
                   decl->element_type->ToString(), " but accessed as ",
                   accessed->ToString()));
    }
  }

  void CheckIntrinsicCall(const CallInst& call, Intrinsic which) {
    auto handle_pool = [&](size_t arg_index) -> std::string {
      if (arg_index >= call.num_args()) {
        return "";
      }
      const auto* gv =
          dynamic_cast<const GlobalVariable*>(call.arg(arg_index));
      if (gv == nullptr || !vir::IsMetapoolHandle(gv)) {
        Error("safety operation does not take a metapool handle");
        return "";
      }
      return gv->name();
    };
    auto expect_pool = [&](size_t arg_index, const std::string& pool,
                           const char* what) {
      if (pool.empty() || arg_index >= call.num_args()) {
        return;
      }
      const std::string& got = PoolOf(call.arg(arg_index));
      if (!got.empty() && got != pool) {
        Error(StrCat(what, ": pointer annotated ", got,
                     " but operation targets pool ", pool));
      }
    };
    switch (which) {
      case Intrinsic::kPchkRegObj:
        expect_pool(1, handle_pool(0), "pchk.reg.obj");
        break;
      case Intrinsic::kPchkDropObj:
        expect_pool(1, handle_pool(0), "pchk.drop.obj");
        break;
      case Intrinsic::kBoundsCheck: {
        std::string pool = handle_pool(0);
        expect_pool(1, pool, "sva.boundscheck src");
        expect_pool(2, pool, "sva.boundscheck derived");
        break;
      }
      case Intrinsic::kGetBounds:
        expect_pool(1, handle_pool(0), "sva.getbounds");
        break;
      case Intrinsic::kLSCheck:
        expect_pool(1, handle_pool(0), "sva.lscheck");
        break;
      default:
        break;
    }
  }

  void CheckInstruction(const Instruction& inst) {
    CheckDeclared(&inst, "instruction");
    switch (inst.opcode()) {
      case Opcode::kBitcast: {
        const auto* cast = static_cast<const vir::CastInst*>(&inst);
        if (cast->src()->type()->IsPointer() && inst.type()->IsPointer()) {
          CheckPreserves(inst, cast->src());
        }
        break;
      }
      case Opcode::kGetElementPtr: {
        const auto* gep = static_cast<const GetElementPtrInst*>(&inst);
        CheckPreserves(inst, gep->base());
        break;
      }
      case Opcode::kPhi: {
        const auto* phi = static_cast<const PhiInst*>(&inst);
        if (inst.type()->IsPointer()) {
          for (size_t i = 0; i < phi->num_incoming(); ++i) {
            CheckPreserves(inst, phi->incoming_value(i));
          }
        }
        break;
      }
      case Opcode::kSelect: {
        const auto* sel = static_cast<const SelectInst*>(&inst);
        if (inst.type()->IsPointer()) {
          CheckPreserves(inst, sel->true_value());
          CheckPreserves(inst, sel->false_value());
        }
        break;
      }
      case Opcode::kLoad: {
        const auto* load = static_cast<const LoadInst*>(&inst);
        CheckTHAccess(load->pointer(), inst.type());
        if (inst.type()->IsPointer()) {
          CheckEdge(PoolOf(load->pointer()), PoolOf(&inst), "load");
        }
        break;
      }
      case Opcode::kStore: {
        const auto* store = static_cast<const StoreInst*>(&inst);
        CheckTHAccess(store->pointer(), store->stored_value()->type());
        if (store->stored_value()->type()->IsPointer()) {
          CheckEdge(PoolOf(store->pointer()),
                    PoolOf(store->stored_value()), "store");
          CheckFlow(PoolOf(store->pointer()), PoolOf(store->stored_value()));
        }
        break;
      }
      case Opcode::kCall: {
        const auto* call = static_cast<const CallInst*>(&inst);
        const Function* callee = call->called_function();
        if (callee != nullptr) {
          Intrinsic which = vir::LookupIntrinsic(callee->name());
          if (which != Intrinsic::kNone) {
            CheckIntrinsicCall(*call, which);
            break;
          }
          if (!callee->is_declaration()) {
            // R4: actuals match formals.
            for (size_t i = 0;
                 i < call->num_args() && i < callee->num_args(); ++i) {
              if (!call->arg(i)->type()->IsPointer()) {
                continue;
              }
              const std::string& actual = PoolOf(call->arg(i));
              const std::string& formal = PoolOf(callee->arg(i));
              if (!actual.empty() && !formal.empty() && actual != formal) {
                Error(StrCat("call to @", callee->name(), " passes arg ", i,
                             " in pool ", actual, " but formal expects ",
                             formal));
              }
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }

  const Module& module_;
  const TypeCheckOptions& options_;
  TypeCheckResult result_;
  const Function* current_fn_ = nullptr;
  std::map<std::string, std::string> pointee_pools_;
};

}  // namespace

TypeCheckResult TypeCheckModule(const Module& module,
                                const TypeCheckOptions& options) {
  TypeChecker checker(module, options);
  return checker.Run();
}

Status TypeCheckOrError(const Module& module) {
  TypeCheckResult result = TypeCheckModule(module);
  if (result.ok) {
    return OkStatus();
  }
  return VerificationFailed(result.errors.empty() ? "type check failed"
                                                  : result.errors.front());
}

}  // namespace sva::verifier
