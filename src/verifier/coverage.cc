#include "src/verifier/coverage.h"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/support/strings.h"
#include "src/vir/check_analysis.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"
#include "src/vir/structural_verifier.h"

namespace sva::verifier {

using vir::BasicBlock;
using vir::CallInst;
using vir::ConstantInt;
using vir::CountedLoop;
using vir::Function;
using vir::GetElementPtrInst;
using vir::GlobalVariable;
using vir::Instruction;
using vir::Intrinsic;
using vir::Module;
using vir::Opcode;
using vir::PointerType;
using vir::StripCasts;
using vir::Value;

namespace {

std::string Name(const Value* v) {
  return v->name().empty() ? std::string("<unnamed>") : "%" + v->name();
}

uint64_t PointeeSize(const Value* pointer) {
  return vir::SizeOf(
      static_cast<const PointerType*>(pointer->type())->pointee());
}

// `gep T* %x, i64 C` with SizeOf(T) == 1 and %x stripping to `base`: the
// byte C past base. Returns the constant, or nullptr for any other shape.
const ConstantInt* ByteOffsetFrom(const Value* v, const Value* base) {
  const auto* gep = dynamic_cast<const GetElementPtrInst*>(StripCasts(v));
  if (gep == nullptr || gep->num_indices() != 1 ||
      StripCasts(gep->base()) != base || PointeeSize(gep->base()) != 1) {
    return nullptr;
  }
  return dynamic_cast<const ConstantInt*>(gep->index(0));
}

class Coverage {
 public:
  Coverage(const Module& module, const Function& fn,
           const std::function<void(std::string)>& error)
      : module_(module), fn_(fn), error_(error), dt_(fn) {}

  void Run() {
    Collect();
    for (const CountedLoop& loop : vir::FindCountedLoops(fn_, dt_)) {
      CoverLoop(loop);
    }
    for (const auto& bb : fn_.blocks()) {
      if (!dt_.IsReachable(bb.get())) {
        continue;  // Never executes.
      }
      for (const auto& inst : bb->instructions()) {
        switch (inst->opcode()) {
          case Opcode::kGetElementPtr:
            CheckGep(static_cast<const GetElementPtrInst&>(*inst));
            break;
          case Opcode::kLoad:
            CheckAccess(*inst, inst->operand(0), "load");
            break;
          case Opcode::kStore:
            CheckAccess(*inst, inst->operand(1), "store");
            break;
          case Opcode::kCall:
            CheckIndirect(static_cast<const CallInst&>(*inst));
            break;
          default:
            break;
        }
      }
    }
  }

 private:
  struct Use {
    const Instruction* user;
    const BasicBlock* phi_pred;  // Incoming block for a phi use.
  };

  const std::string& PoolOf(const Value* v) const {
    return module_.MetapoolOf(v);
  }

  const vir::MetapoolDecl* DeclOf(const Value* v) const {
    const std::string& pool = PoolOf(v);
    return pool.empty() ? nullptr : module_.FindMetapool(pool);
  }

  // The pool a check's handle operand names ("" if it is no handle).
  static const std::string& HandleOf(const CallInst& call) {
    static const std::string kNone;
    const auto* gv = dynamic_cast<const GlobalVariable*>(call.arg(0));
    return gv != nullptr && vir::IsMetapoolHandle(gv) ? gv->name() : kNone;
  }

  // Files every check and registration under the pointer it is about.
  void Collect() {
    for (const auto& bb : fn_.blocks()) {
      for (const auto& inst : bb->instructions()) {
        Intrinsic which = vir::IntrinsicOf(*inst);
        size_t arg = 0;    // Operand filed under.
        size_t arity = 3;  // Calls of any other arity are no check.
        switch (which) {
          case Intrinsic::kBoundsCheck:
            arg = 2;  // The derived pointer.
            break;
          case Intrinsic::kBoundsCheckDirect:
          case Intrinsic::kPchkRegObj:
            arg = 1;
            break;
          case Intrinsic::kLSCheck:
            arg = 1;
            arity = 2;
            break;
          case Intrinsic::kIndirectCheck:
            arity = 2;
            break;
          default:
            continue;
        }
        const auto* call = static_cast<const CallInst*>(inst.get());
        if (call->num_args() == arity) {
          filed_.push_back({StripCasts(call->arg(arg)), which, call});
        }
      }
    }
    std::sort(filed_.begin(), filed_.end());
  }

  // True if `f` holds for some call of one of `kinds` filed under `pointer`.
  template <typename Fn>
  bool AnyOn(const Value* pointer, std::initializer_list<Intrinsic> kinds,
             Fn f) const {
    auto [lo, hi] =
        std::equal_range(filed_.begin(), filed_.end(), Filed{pointer});
    for (auto it = lo; it != hi; ++it) {
      if (std::find(kinds.begin(), kinds.end(), it->kind) != kinds.end() &&
          f(*it->call)) {
        return true;
      }
    }
    return false;
  }

  // The uses of a getelementptr or bitcast result, built on first need.
  const std::vector<Use>& UsesOf(const Value* v) {
    if (!uses_built_) {
      uses_built_ = true;
      auto note = [&](const Value* op, const Instruction* user,
                      const BasicBlock* pred) {
        if (op->IsInstruction()) {
          Opcode code = static_cast<const Instruction*>(op)->opcode();
          if (code == Opcode::kGetElementPtr || code == Opcode::kBitcast) {
            uses_[op].push_back({user, pred});
          }
        }
      };
      for (const auto& bb : fn_.blocks()) {
        for (const auto& inst : bb->instructions()) {
          if (inst->opcode() == Opcode::kPhi) {
            const auto* phi = static_cast<const vir::PhiInst*>(inst.get());
            for (size_t i = 0; i < phi->num_incoming(); ++i) {
              note(phi->incoming_value(i), phi, phi->incoming_block(i));
            }
          } else {
            for (const Value* op : inst->operands()) {
              note(op, inst.get(), nullptr);
            }
          }
        }
      }
    }
    static const std::vector<Use> kNone;
    auto it = uses_.find(v);
    return it == uses_.end() ? kNone : it->second;
  }

  bool Dominates(const Instruction* check, const Use& use) const {
    if (use.phi_pred != nullptr) {
      return vir::InstDominates(dt_, check, use.phi_pred->terminator());
    }
    return vir::InstDominates(dt_, check, use.user);
  }

  // A splay check bounding `base` and the pointer it was filed under.
  bool IsSplayFrom(const CallInst& check, const Value* base) const {
    return vir::IntrinsicOf(check) == Intrinsic::kBoundsCheck &&
           StripCasts(check.arg(1)) == base;
  }

  // A direct check on [base, base + C) where a dominating pchk.reg.obj
  // registered base with length C: the static bounds are the object's.
  bool IsDirectFrom(const CallInst& check, const Value* base) {
    if (vir::IntrinsicOf(check) != Intrinsic::kBoundsCheckDirect ||
        StripCasts(check.arg(0)) != base) {
      return false;
    }
    const ConstantInt* size = ByteOffsetFrom(check.arg(2), base);
    if (size == nullptr) {
      return false;
    }
    return AnyOn(base, {Intrinsic::kPchkRegObj}, [&](const CallInst& reg) {
      const auto* len = dynamic_cast<const ConstantInt*>(reg.arg(2));
      return len != nullptr && len->zext_value() == size->zext_value() &&
             vir::InstDominates(dt_, &reg, &check);
    });
  }

  // (a)
  void CheckGep(const GetElementPtrInst& gep) {
    if (DeclOf(gep.base()) == nullptr || vir::IsStaticallyInBounds(gep) ||
        covered_.count(&gep) != 0) {
      return;
    }
    const Value* base = StripCasts(gep.base());
    std::vector<const CallInst*> checks;
    AnyOn(&gep, {Intrinsic::kBoundsCheck, Intrinsic::kBoundsCheckDirect},
          [&](const CallInst& check) {
            if (IsSplayFrom(check, base) || IsDirectFrom(check, base)) {
              checks.push_back(&check);
            }
            return false;
          });
    // Every use outside a check operand, looking through bitcasts.
    std::vector<const Value*> work = {&gep};
    while (!work.empty()) {
      const Value* v = work.back();
      work.pop_back();
      for (const Use& use : UsesOf(v)) {
        if (use.user->opcode() == Opcode::kBitcast) {
          work.push_back(use.user);
          continue;
        }
        if (vir::IsCheckIntrinsic(vir::IntrinsicOf(*use.user))) {
          continue;
        }
        bool dominated = false;
        for (const CallInst* check : checks) {
          dominated = dominated || Dominates(check, use);
        }
        if (!dominated) {
          error_(StrCat("R8: getelementptr ", Name(&gep), " in pool ",
                        PoolOf(gep.base()),
                        checks.empty() ? " has no bounds check"
                                       : " is used before its bounds check"));
          return;
        }
      }
    }
  }

  // (b)
  void CheckAccess(const Instruction& access, const Value* pointer,
                   const char* what) {
    const vir::MetapoolDecl* decl = DeclOf(pointer);
    if (decl == nullptr || !decl->complete || decl->type_homogeneous) {
      return;
    }
    const Value* p = StripCasts(pointer);
    if (covered_.count(p) != 0) {
      return;
    }
    const std::string& pool = PoolOf(pointer);
    auto guards = [&](const CallInst& check) {
      return HandleOf(check) == pool &&
             vir::InstDominates(dt_, &check, &access) &&
             vir::NoReleaseBetween(&check, &access);
    };
    if (AnyOn(p, {Intrinsic::kLSCheck, Intrinsic::kBoundsCheck}, guards)) {
      return;
    }
    error_(StrCat("R8: ", what, " through ", Name(pointer), " in pool ", pool,
                  " has no dominating load-store check"));
  }

  // (c)
  void CheckIndirect(const CallInst& call) {
    if (call.called_function() != nullptr) {
      return;
    }
    const vir::MetapoolDecl* decl = DeclOf(call.callee());
    if (decl != nullptr && decl->complete && decl->type_homogeneous) {
      return;  // Pointers in complete TH pools cannot be forged.
    }
    if (AnyOn(StripCasts(call.callee()), {Intrinsic::kIndirectCheck},
              [&](const CallInst& check) {
                return vir::InstDominates(dt_, &check, &call);
              })) {
      return;
    }
    error_(StrCat("R8: indirect call through ", Name(call.callee()),
                  " has no dominating sva.indirectcheck"));
  }

  // Marks the getelementptrs the preheader's range checks cover.
  void CoverLoop(const CountedLoop& loop) {
    if (loop.releases || !loop.HasDedicatedPreheader()) {
      return;
    }
    for (const BasicBlock* bb : loop.body) {
      for (const auto& inst : bb->instructions()) {
        const auto* gep = dynamic_cast<const GetElementPtrInst*>(inst.get());
        if (gep == nullptr || !loop.IsInvariant(gep->base())) {
          continue;
        }
        const vir::MetapoolDecl* decl = DeclOf(gep->base());
        const uint64_t stride = vir::CoveredStride(*gep, loop);
        if (decl != nullptr && decl->complete && stride != 0 &&
            RangeChecked(loop, StripCasts(gep->base()), stride,
                         PoolOf(gep->base()))) {
          covered_.insert(gep);
        }
      }
    }
  }

  // True if the preheader bounds [base, base + k*stride] in `pool`, proves
  // base <= last, and releases nothing after the splay check.
  bool RangeChecked(const CountedLoop& loop, const Value* base,
                    uint64_t stride, const std::string& pool) {
    const BasicBlock* pre = loop.entry;
    const Value* last = nullptr;
    bool ordered = false;
    for (const auto& inst : pre->instructions()) {
      const auto* call = dynamic_cast<const CallInst*>(inst.get());
      Intrinsic which = vir::IntrinsicOf(*inst);
      if (which == Intrinsic::kBoundsCheck && call->num_args() == 3 &&
          HandleOf(*call) == pool && StripCasts(call->arg(1)) == base) {
        const auto* gep =
            dynamic_cast<const GetElementPtrInst*>(StripCasts(call->arg(2)));
        if (gep != nullptr && gep->num_indices() == 1 &&
            StripCasts(gep->base()) == base &&
            PointeeSize(gep->base()) == stride &&
            vir::IsLastIndexOf(gep->index(0), loop.bound) &&
            vir::NoReleaseBetween(call, pre->terminator())) {
          last = gep;
        }
      }
    }
    for (const auto& inst : pre->instructions()) {
      const auto* call = dynamic_cast<const CallInst*>(inst.get());
      if (last != nullptr &&
          vir::IntrinsicOf(*inst) == Intrinsic::kBoundsCheckDirect &&
          call->num_args() == 3 && StripCasts(call->arg(0)) == base &&
          StripCasts(call->arg(1)) == last) {
        const ConstantInt* one = ByteOffsetFrom(call->arg(2), last);
        ordered = ordered || (one != nullptr && one->zext_value() == 1);
      }
    }
    return ordered;
  }

  const Module& module_;
  const Function& fn_;
  const std::function<void(std::string)>& error_;
  const vir::DominatorTree dt_;
  // A check or registration, filed under the (cast-stripped) pointer it is
  // about: the derived pointer of a bounds check, the function pointer of
  // an indirect-call check, the pointer of the others.
  struct Filed {
    const Value* pointer = nullptr;
    Intrinsic kind = Intrinsic::kNone;
    const CallInst* call = nullptr;
    bool operator<(const Filed& other) const {
      return pointer < other.pointer;
    }
  };
  std::vector<Filed> filed_;  // Sorted by pointer.
  std::unordered_map<const Value*, std::vector<Use>> uses_;
  bool uses_built_ = false;
  std::set<const Value*> covered_;
};

}  // namespace

void CheckCoverage(const Module& module, const Function& fn,
                   const std::function<void(std::string)>& error) {
  if (fn.is_declaration() || fn.blocks().empty()) {
    return;
  }
  Coverage(module, fn, error).Run();
}

}  // namespace sva::verifier
