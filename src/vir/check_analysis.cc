#include "src/vir/check_analysis.h"

#include <limits>
#include <map>

namespace sva::vir {

const Value* StripCasts(const Value* v) {
  while (v->IsInstruction() &&
         static_cast<const Instruction*>(v)->opcode() == Opcode::kBitcast) {
    v = static_cast<const Instruction*>(v)->operand(0);
  }
  return v;
}

Intrinsic IntrinsicOf(const Instruction& inst) {
  if (inst.opcode() != Opcode::kCall) {
    return Intrinsic::kNone;
  }
  const Function* callee =
      static_cast<const CallInst&>(inst).called_function();
  return callee == nullptr ? Intrinsic::kNone
                           : LookupIntrinsic(callee->name());
}

bool IsCheckIntrinsic(Intrinsic which) {
  return which == Intrinsic::kBoundsCheck ||
         which == Intrinsic::kBoundsCheckDirect ||
         which == Intrinsic::kLSCheck || which == Intrinsic::kIndirectCheck ||
         which == Intrinsic::kGetBounds;
}

bool MayReleaseObjects(const Instruction& inst) {
  if (inst.opcode() == Opcode::kFree) {
    return true;
  }
  return inst.opcode() == Opcode::kCall &&
         !IsCheckIntrinsic(IntrinsicOf(inst));
}

bool IsStaticallyInBounds(const GetElementPtrInst& gep) {
  const auto* lead = dynamic_cast<const ConstantInt*>(gep.index(0));
  if (lead == nullptr || lead->zext_value() != 0) {
    return false;
  }
  const Type* current =
      static_cast<const PointerType*>(gep.base()->type())->pointee();
  for (size_t i = 1; i < gep.num_indices(); ++i) {
    const auto* ci = dynamic_cast<const ConstantInt*>(gep.index(i));
    if (current->IsStruct()) {
      // Struct field indices are constant and range-checked by the
      // structural verifier.
      current = static_cast<const StructType*>(current)
                    ->fields()[ci->zext_value()];
    } else if (current->IsArray()) {
      const auto* at = static_cast<const ArrayType*>(current);
      if (ci == nullptr || ci->zext_value() >= at->length()) {
        return false;
      }
      current = at->element();
    } else {
      return false;
    }
  }
  return true;
}

bool CountedLoop::IsInvariant(const Value* v) const {
  const auto* inst = dynamic_cast<const Instruction*>(v);
  return inst == nullptr || !Contains(inst->parent());
}

bool CountedLoop::HasDedicatedPreheader() const {
  const auto* br = dynamic_cast<const BranchInst*>(entry->terminator());
  return br != nullptr && !br->is_conditional() && br->target(0) == header;
}

namespace {

bool IsConstantValue(const Value* v, uint64_t value) {
  const auto* c = dynamic_cast<const ConstantInt*>(v);
  return c != nullptr && c->zext_value() == value;
}

bool IsI64(const Value* v) {
  return v->type()->IsInt() &&
         static_cast<const IntType*>(v->type())->bits() == 64;
}

// Matches the latch of a counted loop with header `header`; fills the index,
// bound and exit shape into `loop`.
bool MatchLatch(CountedLoop& loop) {
  const auto* br = dynamic_cast<const BranchInst*>(loop.latch->terminator());
  if (br == nullptr || !br->is_conditional() ||
      br->target(0) != loop.header || loop.Contains(br->target(1))) {
    return false;
  }
  const auto* cmp = dynamic_cast<const CmpInst*>(br->condition());
  if (cmp == nullptr || cmp->opcode() != Opcode::kICmp ||
      cmp->pred() != CmpPred::kULt) {
    return false;
  }
  const auto* next = dynamic_cast<const BinaryInst*>(cmp->lhs());
  if (next == nullptr || next->opcode() != Opcode::kAdd ||
      !IsConstantValue(next->rhs(), 1) || !loop.Contains(next->parent())) {
    return false;
  }
  const auto* phi = dynamic_cast<const PhiInst*>(next->lhs());
  if (phi == nullptr || phi->parent() != loop.header || !IsI64(phi) ||
      phi->num_incoming() != 2 || !loop.IsInvariant(cmp->rhs())) {
    return false;
  }
  if (!IsConstantValue(phi->ValueForBlock(loop.entry), 0) ||
      phi->ValueForBlock(loop.latch) != next) {
    return false;
  }
  loop.index = phi;
  loop.bound = cmp->rhs();
  return true;
}

}  // namespace

bool MayHaveCountedLoops(const Function& fn) {
  for (const auto& bb : fn.blocks()) {
    if (bb.get() != fn.entry() && !bb->empty() &&
        bb->front()->opcode() == Opcode::kPhi) {
      return true;
    }
  }
  return false;
}

std::vector<CountedLoop> FindCountedLoops(const Function& fn,
                                          const DominatorTree& dt) {
  std::vector<CountedLoop> loops;
  if (!MayHaveCountedLoops(fn)) {
    return loops;
  }
  auto preds = PredecessorMap(fn);
  for (const auto& bb : fn.blocks()) {
    BasicBlock* header = bb.get();
    if (!dt.IsReachable(header) || header == fn.entry()) {
      continue;
    }
    // Exactly two incoming edges: one back edge and one from outside.
    const std::vector<const BasicBlock*>& in = preds[header];
    if (in.size() != 2 || in[0] == in[1]) {
      continue;
    }
    CountedLoop loop;
    loop.header = header;
    for (const BasicBlock* p : in) {
      if (dt.Dominates(header, p)) {
        loop.latch = const_cast<BasicBlock*>(p);
      } else {
        loop.entry = const_cast<BasicBlock*>(p);
      }
    }
    if (loop.latch == nullptr || loop.entry == nullptr ||
        !dt.IsReachable(loop.entry)) {
      continue;
    }
    // The natural loop of the back edge: everything that reaches the latch
    // without passing through the header.
    std::vector<const BasicBlock*> work = {loop.latch};
    loop.body.insert(header);
    while (!work.empty()) {
      const BasicBlock* cur = work.back();
      work.pop_back();
      if (!loop.body.insert(cur).second) {
        continue;
      }
      for (const BasicBlock* p : preds[cur]) {
        work.push_back(p);
      }
    }
    bool single_exit = true;
    for (const BasicBlock* b : loop.body) {
      for (const BasicBlock* succ : b->Successors()) {
        if (!loop.Contains(succ) && b != loop.latch) {
          single_exit = false;
        }
      }
      for (const auto& inst : b->instructions()) {
        loop.releases = loop.releases || MayReleaseObjects(*inst);
      }
    }
    if (single_exit && MatchLatch(loop)) {
      loops.push_back(std::move(loop));
    }
  }
  return loops;
}

bool IsLastIndexOf(const Value* k, const Value* n) {
  const auto* sub = dynamic_cast<const BinaryInst*>(k);
  if (sub == nullptr || sub->opcode() != Opcode::kSub ||
      !IsConstantValue(sub->rhs(), 1) || !IsI64(sub)) {
    return false;
  }
  const auto* sel = dynamic_cast<const SelectInst*>(sub->lhs());
  if (sel == nullptr || !IsConstantValue(sel->true_value(), 1) ||
      sel->false_value() != n) {
    return false;
  }
  const auto* cmp = dynamic_cast<const CmpInst*>(sel->condition());
  return cmp != nullptr && cmp->opcode() == Opcode::kICmp &&
         cmp->pred() == CmpPred::kEq && cmp->lhs() == n &&
         IsConstantValue(cmp->rhs(), 0);
}

uint64_t CoveredStride(const GetElementPtrInst& gep, const CountedLoop& loop) {
  if (gep.num_indices() != 1 || gep.index(0) != loop.index) {
    return 0;
  }
  const uint64_t stride = SizeOf(
      static_cast<const PointerType*>(gep.base()->type())->pointee());
  if (stride == 1) {
    return stride;
  }
  const auto* n = dynamic_cast<const ConstantInt*>(loop.bound);
  if (stride == 0 || n == nullptr) {
    return 0;
  }
  const uint64_t last = n->zext_value() == 0 ? 0 : n->zext_value() - 1;
  return last <= std::numeric_limits<uint64_t>::max() / stride ? stride : 0;
}

bool InstDominates(const DominatorTree& dt, const Instruction* a,
                   const Instruction* b) {
  if (a->parent() == b->parent()) {
    return a->parent()->IndexOf(a) < b->parent()->IndexOf(b);
  }
  return dt.Dominates(a->parent(), b->parent());
}

namespace {

// True if no instruction in [begin, end) of `bb` may release an object.
bool RangeIsReleaseFree(const BasicBlock* bb, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (MayReleaseObjects(*bb->instructions()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool NoReleaseBetween(const Instruction* from, const Instruction* to) {
  const BasicBlock* a = from->parent();
  const BasicBlock* b = to->parent();
  const size_t from_index = a->IndexOf(from);
  const size_t to_index = b->IndexOf(to);
  if (a == b && from_index < to_index) {
    return RangeIsReleaseFree(a, from_index + 1, to_index);
  }
  // The path leaves `a` after `from`, crosses blocks reachable from `a`
  // without re-entering it (re-entering reruns `from`), and enters `b`.
  if (!RangeIsReleaseFree(a, from_index + 1, a->instructions().size()) ||
      !RangeIsReleaseFree(b, 0, to_index)) {
    return false;
  }
  std::set<const BasicBlock*> forward;
  std::vector<BasicBlock*> succs = a->Successors();
  std::vector<const BasicBlock*> work(succs.begin(), succs.end());
  while (!work.empty()) {
    const BasicBlock* cur = work.back();
    work.pop_back();
    if (cur == a || !forward.insert(cur).second) {
      continue;
    }
    for (const BasicBlock* succ : cur->Successors()) {
      work.push_back(succ);
    }
  }
  // Of those, every block that can reach `b` again must be release-free
  // as a whole: `b` itself only when it lies on a cycle that avoids `a`.
  std::map<const BasicBlock*, std::vector<const BasicBlock*>> preds;
  for (const BasicBlock* x : forward) {
    for (const BasicBlock* succ : x->Successors()) {
      preds[succ].push_back(x);
    }
  }
  std::set<const BasicBlock*> seen;
  work = preds[b];
  while (!work.empty()) {
    const BasicBlock* cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) {
      continue;
    }
    if (!RangeIsReleaseFree(cur, 0, cur->instructions().size())) {
      return false;
    }
    for (const BasicBlock* p : preds[cur]) {
      work.push_back(p);
    }
  }
  return true;
}

}  // namespace sva::vir
