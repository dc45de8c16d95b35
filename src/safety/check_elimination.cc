#include "src/safety/check_elimination.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/vir/builder.h"
#include "src/vir/check_analysis.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"
#include "src/vir/structural_verifier.h"

namespace sva::safety {

using vir::BasicBlock;
using vir::CallInst;
using vir::CountedLoop;
using vir::Function;
using vir::GetElementPtrInst;
using vir::Instruction;
using vir::Intrinsic;
using vir::Module;
using vir::Opcode;
using vir::StripCasts;
using vir::Value;

namespace {

bool IsPoolCheck(Intrinsic which) {
  return which == Intrinsic::kBoundsCheck ||
         which == Intrinsic::kBoundsCheckDirect ||
         which == Intrinsic::kLSCheck;
}

// The pointer a check is about.
const Value* CheckedPointer(const CallInst& check) {
  switch (vir::IntrinsicOf(check)) {
    case Intrinsic::kBoundsCheck:
      return StripCasts(check.arg(2));
    case Intrinsic::kIndirectCheck:
      return StripCasts(check.arg(0));
    default:
      return StripCasts(check.arg(1));
  }
}

class Eliminator {
 public:
  Eliminator(Module& module, Function& fn,
             const CheckEliminationOptions& options,
             CheckEliminationReport& report)
      : module_(module), fn_(fn), options_(options), report_(report) {}

  void Run() {
    // Steps 1 and 2 share one loop analysis: splitting an entry edge adds a
    // block outside every loop it could affect.
    if ((options_.monotonic_ranges || options_.hoist_invariant) &&
        vir::MayHaveCountedLoops(fn_)) {
      vir::DominatorTree dt(fn_);
      for (const CountedLoop& loop : vir::FindCountedLoops(fn_, dt)) {
        if (loop.releases) {
          continue;
        }
        BasicBlock* pre = nullptr;
        if (options_.monotonic_ranges) {
          CoverLoop(loop, pre);
        }
        if (options_.hoist_invariant) {
          HoistInvariant(loop, dt, pre);
        }
      }
    }
    if (options_.dominated_duplicates) {
      RemoveDuplicates();
    }
    RemoveDeadOperands();
  }

 private:
  const vir::MetapoolDecl* DeclOf(const Value* v) const {
    const std::string& pool = module_.MetapoolOf(v);
    return pool.empty() ? nullptr : module_.FindMetapool(pool);
  }

  // The loop's dedicated preheader (cached in `pre`), split off the entry
  // edge if the entry block branches elsewhere too. Null when the entry
  // edge is a switch.
  BasicBlock* PreheaderOf(const CountedLoop& loop, BasicBlock*& pre) {
    if (pre != nullptr) {
      return pre;
    }
    if (loop.HasDedicatedPreheader()) {
      return pre = loop.entry;
    }
    auto* br = dynamic_cast<vir::BranchInst*>(loop.entry->terminator());
    if (br == nullptr) {
      return nullptr;
    }
    pre = fn_.CreateBlock(UniqueBlockName(loop.header->name()));
    for (size_t i = 0; i < br->num_targets(); ++i) {
      if (br->target(i) == loop.header) {
        br->set_target(i, pre);
      }
    }
    for (const auto& inst : loop.header->instructions()) {
      auto* phi = dynamic_cast<vir::PhiInst*>(inst.get());
      if (phi == nullptr) {
        break;
      }
      for (size_t i = 0; i < phi->num_incoming(); ++i) {
        if (phi->incoming_block(i) == loop.entry) {
          phi->set_incoming_block(i, pre);
        }
      }
    }
    vir::IRBuilder b(module_);
    b.SetInsertPoint(pre);
    b.CreateBr(loop.header);
    return pre;
  }

  std::string UniqueBlockName(const std::string& header) const {
    auto taken = [&](const std::string& name) {
      for (const auto& bb : fn_.blocks()) {
        if (bb->name() == name) {
          return true;
        }
      }
      return false;
    };
    std::string name = header + ".ph";
    for (int n = 1; taken(name); ++n) {
      name = header + ".ph" + std::to_string(n);
    }
    return name;
  }

  // Unlinks `inst`; its operands become candidates for RemoveDeadOperands.
  // Removed instructions live until the pass ends, so no stale pointer
  // (or annotation) can alias a new value meanwhile.
  void Erase(Instruction* inst) {
    for (Value* op : inst->operands()) {
      dead_candidates_.push_back(op);
    }
    module_.mutable_value_annotations().erase(inst);
    removed_.push_back(inst->parent()->Remove(inst));
  }

  // Step 1.
  void CoverLoop(const CountedLoop& loop, BasicBlock*& pre) {
    // Covered accesses, grouped by base and stride (one range check each).
    struct Group {
      Value* base;
      uint64_t stride;
      std::vector<const GetElementPtrInst*> geps;
    };
    std::vector<Group> groups;
    for (const auto& bb : fn_.blocks()) {
      if (!loop.Contains(bb.get())) {
        continue;
      }
      for (const auto& inst : bb->instructions()) {
        const auto* gep = dynamic_cast<const GetElementPtrInst*>(inst.get());
        if (gep == nullptr || !loop.IsInvariant(gep->base())) {
          continue;
        }
        const vir::MetapoolDecl* decl = DeclOf(gep->base());
        const uint64_t stride = vir::CoveredStride(*gep, loop);
        if (decl == nullptr || !decl->complete || stride == 0) {
          continue;
        }
        Group* group = nullptr;
        for (Group& g : groups) {
          if (StripCasts(g.base) == StripCasts(gep->base()) &&
              g.stride == stride) {
            group = &g;
          }
        }
        if (group == nullptr) {
          groups.push_back({gep->base(), stride, {}});
          group = &groups.back();
        }
        group->geps.push_back(gep);
      }
    }
    if (groups.empty() || PreheaderOf(loop, pre) == nullptr) {
      return;
    }
    Function* bounds = DeclareIntrinsic(module_, Intrinsic::kBoundsCheck);
    Function* direct =
        DeclareIntrinsic(module_, Intrinsic::kBoundsCheckDirect);
    vir::IRBuilder b(module_);
    b.SetInsertPoint(pre, pre->IndexOf(pre->terminator()));
    Value* n = loop.bound;
    Value* empty = b.CreateICmp(vir::CmpPred::kEq, n, module_.GetInt64(0));
    Value* trips = b.CreateSelect(empty, module_.GetInt64(1), n);
    Value* k = b.CreateSub(trips, module_.GetInt64(1));
    std::set<const Value*> covered;
    for (const Group& group : groups) {
      const std::string& pool = module_.MetapoolOf(group.base);
      Value* last = b.CreateGEP(group.base, {k});
      module_.AnnotateValue(last, pool);
      Value* base8 = CastToI8Ptr(module_, b, group.base);
      Value* last8 = CastToI8Ptr(module_, b, last);
      b.CreateCall(bounds, {vir::MetapoolHandle(module_, pool), base8, last8});
      Value* end = b.CreateGEP(last8, {module_.GetInt64(1)});
      module_.AnnotateValue(end, pool);
      b.CreateCall(direct, {base8, last8, end});
      report_.range_checks += 2;
      covered.insert(group.geps.begin(), group.geps.end());
    }
    for (const auto& bb : fn_.blocks()) {
      if (!loop.Contains(bb.get())) {
        continue;
      }
      std::vector<Instruction*> dead;
      for (const auto& inst : bb->instructions()) {
        auto* call = dynamic_cast<CallInst*>(inst.get());
        if (call != nullptr && IsPoolCheck(vir::IntrinsicOf(*call)) &&
            covered.count(CheckedPointer(*call)) != 0) {
          dead.push_back(call);
        }
      }
      for (Instruction* check : dead) {
        Erase(check);
        ++report_.range_covered;
      }
    }
  }

  // True if `v` is defined outside `loop`, looking through bitcasts in it.
  static bool InvariantThroughCasts(const Value* v, const CountedLoop& loop) {
    while (!loop.IsInvariant(v)) {
      const auto* inst = static_cast<const Instruction*>(v);
      if (inst->opcode() != Opcode::kBitcast) {
        return false;
      }
      v = inst->operand(0);
    }
    return true;
  }

  // Step 2.
  void HoistInvariant(const CountedLoop& loop, const vir::DominatorTree& dt,
                      BasicBlock*& pre) {
    std::vector<CallInst*> movable;
    for (const auto& bb : fn_.blocks()) {
      // Blocks that run on every iteration (the latch's dominators).
      if (!loop.Contains(bb.get()) || !dt.Dominates(bb.get(), loop.latch)) {
        continue;
      }
      for (const auto& inst : bb->instructions()) {
        auto* call = dynamic_cast<CallInst*>(inst.get());
        if (call == nullptr || !IsPoolCheck(vir::IntrinsicOf(*call))) {
          continue;
        }
        bool invariant = true;
        for (size_t i = 0; i < call->num_args(); ++i) {
          invariant = invariant && InvariantThroughCasts(call->arg(i), loop);
        }
        if (invariant) {
          movable.push_back(call);
        }
      }
    }
    if (movable.empty() || PreheaderOf(loop, pre) == nullptr) {
      return;
    }
    for (CallInst* check : movable) {
      for (Value* arg : check->operands()) {
        MoveCastsTo(arg, loop, pre);
      }
      MoveTo(check, pre);
      ++report_.hoisted;
    }
  }

  static void MoveTo(Instruction* inst, BasicBlock* pre) {
    std::unique_ptr<Instruction> moved = inst->parent()->Remove(inst);
    pre->InsertAt(pre->IndexOf(pre->terminator()), std::move(moved));
  }

  // Moves the bitcasts defining `v` inside the loop to the preheader.
  static void MoveCastsTo(Value* v, const CountedLoop& loop, BasicBlock* pre) {
    if (loop.IsInvariant(v)) {
      return;
    }
    auto* cast = static_cast<Instruction*>(v);
    MoveCastsTo(cast->operand(0), loop, pre);
    MoveTo(cast, pre);
  }

  // Step 3.
  void RemoveDuplicates() {
    // Only checks on one pointer can subsume each other.
    std::set<const Value*> seen;
    bool candidates = false;
    for (const auto& bb : fn_.blocks()) {
      for (const auto& inst : bb->instructions()) {
        Intrinsic which = vir::IntrinsicOf(*inst);
        if (IsPoolCheck(which) || which == Intrinsic::kIndirectCheck) {
          const auto& call = static_cast<const CallInst&>(*inst);
          candidates = candidates || !seen.insert(CheckedPointer(call)).second;
        }
      }
    }
    if (!candidates) {
      return;
    }
    vir::DominatorTree dt(fn_);
    std::vector<CallInst*> kept;
    for (const BasicBlock* bb : vir::ReversePostOrder(fn_)) {
      std::vector<CallInst*> dead;
      for (const auto& inst : bb->instructions()) {
        auto* call = dynamic_cast<CallInst*>(inst.get());
        Intrinsic which = call == nullptr ? Intrinsic::kNone
                                          : vir::IntrinsicOf(*call);
        if (!IsPoolCheck(which) && which != Intrinsic::kIndirectCheck) {
          continue;
        }
        bool redundant = false;
        for (CallInst* earlier : kept) {
          redundant = redundant || Subsumes(dt, *earlier, *call);
        }
        if (redundant) {
          dead.push_back(call);
        } else {
          kept.push_back(call);
        }
      }
      for (CallInst* check : dead) {
        Erase(check);
        ++report_.duplicates;
      }
    }
  }

  // True if `earlier` proves everything `later` would.
  static bool Subsumes(const vir::DominatorTree& dt, const CallInst& earlier,
                       const CallInst& later) {
    if (!vir::InstDominates(dt, &earlier, &later)) {
      return false;
    }
    Intrinsic a = vir::IntrinsicOf(earlier);
    Intrinsic b = vir::IntrinsicOf(later);
    bool same = a == b && earlier.num_args() == later.num_args();
    for (size_t i = 0; same && i < later.num_args(); ++i) {
      same = StripCasts(earlier.arg(i)) == StripCasts(later.arg(i));
    }
    // A passing splay check found the pointer inside a registered object of
    // the pool, which is all a load-store check on it asks.
    bool stronger = a == Intrinsic::kBoundsCheck &&
                    b == Intrinsic::kLSCheck &&
                    earlier.arg(0) == later.arg(0) &&
                    CheckedPointer(earlier) == CheckedPointer(later);
    if (!same && !stronger) {
      return false;
    }
    // Direct and indirect checks depend on their operands alone; the others
    // read pool state, which a release in between could change.
    return b == Intrinsic::kBoundsCheckDirect ||
           b == Intrinsic::kIndirectCheck ||
           vir::NoReleaseBetween(&earlier, &later);
  }

  // Erases the bitcasts and getelementptrs that only removed checks used.
  void RemoveDeadOperands() {
    while (!dead_candidates_.empty()) {
      std::vector<Instruction*> dead;
      for (Value* v : dead_candidates_) {
        auto* inst = dynamic_cast<Instruction*>(v);
        if (inst != nullptr && inst->parent() != nullptr &&
            (inst->opcode() == Opcode::kBitcast ||
             inst->opcode() == Opcode::kGetElementPtr) &&
            std::find(dead.begin(), dead.end(), inst) == dead.end()) {
          dead.push_back(inst);
        }
      }
      dead_candidates_.clear();
      auto unuse = [&](const Value* op) {
        dead.erase(std::remove(dead.begin(), dead.end(), op), dead.end());
      };
      for (const auto& bb : fn_.blocks()) {
        for (const auto& inst : bb->instructions()) {
          for (size_t i = 0; !dead.empty() && i < inst->num_operands(); ++i) {
            unuse(inst->operand(i));
          }
          if (inst->opcode() == Opcode::kPhi) {
            const auto& phi = static_cast<const vir::PhiInst&>(*inst);
            for (size_t i = 0; i < phi.num_incoming(); ++i) {
              unuse(phi.incoming_value(i));
            }
          }
        }
      }
      for (Instruction* inst : dead) {
        Erase(inst);
      }
    }
  }

  Module& module_;
  Function& fn_;
  const CheckEliminationOptions& options_;
  CheckEliminationReport& report_;
  std::vector<Value*> dead_candidates_;
  std::vector<std::unique_ptr<Instruction>> removed_;
};

}  // namespace

Value* CastToI8Ptr(Module& module, vir::IRBuilder& b, Value* v) {
  const vir::PointerType* i8p = module.types().PointerTo(module.types().I8());
  if (v->type() == i8p) {
    return v;
  }
  Value* cast = b.CreateBitcast(v, i8p);
  const std::string& pool = module.MetapoolOf(v);
  if (!pool.empty()) {
    module.AnnotateValue(cast, pool);
  }
  return cast;
}

CheckEliminationReport EliminateChecks(Module& module,
                                       const CheckEliminationOptions& options) {
  CheckEliminationReport report;
  for (const auto& fn : module.functions()) {
    if (!fn->is_declaration() && !fn->blocks().empty()) {
      Eliminator(module, *fn, options, report).Run();
    }
  }
  return report;
}

}  // namespace sva::safety
