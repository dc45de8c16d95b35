#include "src/vir/structural_verifier.h"

#include <algorithm>
#include <set>

#include "src/support/strings.h"
#include "src/vir/builder.h"
#include "src/vir/instructions.h"

namespace sva::vir {

std::vector<const BasicBlock*> ReversePostOrder(const Function& fn) {
  std::vector<const BasicBlock*> order;
  std::set<const BasicBlock*> visited;
  std::vector<std::pair<const BasicBlock*, size_t>> stack;
  const BasicBlock* entry = fn.entry();
  if (entry == nullptr) {
    return order;
  }
  stack.emplace_back(entry, 0);
  visited.insert(entry);
  std::vector<const BasicBlock*> post;
  while (!stack.empty()) {
    auto& [bb, next] = stack.back();
    std::vector<BasicBlock*> succs = bb->Successors();
    if (next < succs.size()) {
      BasicBlock* s = succs[next++];
      if (visited.insert(s).second) {
        stack.emplace_back(s, 0);
      }
    } else {
      post.push_back(bb);
      stack.pop_back();
    }
  }
  order.assign(post.rbegin(), post.rend());
  return order;
}

namespace {

// True if a cast's source and result types are of the classes its opcode
// converts between. Floats only enter or leave through sitofp/fptosi.
bool CastClassesAgree(Opcode op, const Type* from, const Type* to) {
  switch (op) {
    case Opcode::kTrunc:
    case Opcode::kZExt:
    case Opcode::kSExt:
      return from->IsInt() && to->IsInt();
    case Opcode::kPtrToInt:
      return from->IsPointer() && to->IsInt();
    case Opcode::kIntToPtr:
      return from->IsInt() && to->IsPointer();
    case Opcode::kSIToFP:
      return from->IsInt() && to->IsFloat();
    case Opcode::kFPToSI:
      return from->IsFloat() && to->IsInt();
    default:  // kBitcast
      return !from->IsFloat() && !to->IsFloat();
  }
}

}  // namespace

std::map<const BasicBlock*, std::vector<const BasicBlock*>> PredecessorMap(
    const Function& fn) {
  std::map<const BasicBlock*, std::vector<const BasicBlock*>> preds;
  for (const auto& bb : fn.blocks()) {
    for (BasicBlock* succ : bb->Successors()) {
      preds[succ].push_back(bb.get());
    }
  }
  return preds;
}

DominatorTree::DominatorTree(const Function& fn) {
  std::vector<const BasicBlock*> rpo = ReversePostOrder(fn);
  for (size_t i = 0; i < rpo.size(); ++i) {
    rpo_index_[rpo[i]] = static_cast<int>(i);
  }
  if (rpo.empty()) {
    return;
  }
  auto preds = PredecessorMap(fn);
  const BasicBlock* entry = rpo.front();
  idom_[entry] = entry;

  auto intersect = [&](const BasicBlock* a,
                       const BasicBlock* b) -> const BasicBlock* {
    while (a != b) {
      while (rpo_index_.at(a) > rpo_index_.at(b)) {
        a = idom_.at(a);
      }
      while (rpo_index_.at(b) > rpo_index_.at(a)) {
        b = idom_.at(b);
      }
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < rpo.size(); ++i) {
      const BasicBlock* bb = rpo[i];
      const BasicBlock* new_idom = nullptr;
      for (const BasicBlock* p : preds[bb]) {
        if (idom_.find(p) == idom_.end()) {
          continue;  // Unreachable or not yet processed.
        }
        new_idom = new_idom == nullptr ? p : intersect(p, new_idom);
      }
      if (new_idom != nullptr) {
        auto it = idom_.find(bb);
        if (it == idom_.end() || it->second != new_idom) {
          idom_[bb] = new_idom;
          changed = true;
        }
      }
    }
  }
}

const BasicBlock* DominatorTree::ImmediateDominator(
    const BasicBlock* bb) const {
  auto it = idom_.find(bb);
  if (it == idom_.end() || it->second == bb) {
    return nullptr;
  }
  return it->second;
}

bool DominatorTree::Dominates(const BasicBlock* a, const BasicBlock* b) const {
  if (!IsReachable(a) || !IsReachable(b)) {
    return false;
  }
  const BasicBlock* cur = b;
  while (true) {
    if (cur == a) {
      return true;
    }
    auto it = idom_.find(cur);
    if (it == idom_.end() || it->second == cur) {
      return false;
    }
    cur = it->second;
  }
}

bool DominatorTree::IsReachable(const BasicBlock* bb) const {
  return rpo_index_.find(bb) != rpo_index_.end();
}

Status VerifyFunction(const Module& module, const Function& fn) {
  (void)module;
  if (fn.is_declaration()) {
    return OkStatus();
  }
  if (fn.blocks().empty()) {
    return VerificationFailed(
        StrCat("@", fn.name(), ": defined function has no blocks"));
  }
  auto preds = PredecessorMap(fn);

  // Every block must end with exactly one terminator, and only at the end.
  for (const auto& bb : fn.blocks()) {
    if (bb->terminator() == nullptr) {
      return VerificationFailed(
          StrCat("@", fn.name(), " block ", bb->name(), ": no terminator"));
    }
    for (size_t i = 0; i + 1 < bb->instructions().size(); ++i) {
      if (bb->instructions()[i]->IsTerminator()) {
        return VerificationFailed(StrCat("@", fn.name(), " block ", bb->name(),
                                         ": terminator in mid-block"));
      }
      if (bb->instructions()[i]->opcode() == Opcode::kPhi &&
          i > 0 &&
          bb->instructions()[i - 1]->opcode() != Opcode::kPhi) {
        return VerificationFailed(StrCat("@", fn.name(), " block ", bb->name(),
                                         ": phi not at block start"));
      }
    }
    // The threaded tier counts a block's phis (its per-edge moves) in 16
    // bits.
    if (kMaxPhisPerBlock < bb->instructions().size() &&
        bb->instructions()[kMaxPhisPerBlock]->opcode() == Opcode::kPhi) {
      return VerificationFailed(StrCat("@", fn.name(), " block ", bb->name(),
                                       ": more than ", kMaxPhisPerBlock,
                                       " phis"));
    }
  }

  // The entry block is where a call starts: nothing branches back to it and
  // it has no incoming edge for a phi to choose by.
  const BasicBlock* entry = fn.entry();
  if (entry->instructions().front()->opcode() == Opcode::kPhi) {
    return VerificationFailed(StrCat("@", fn.name(), ": phi in entry block"));
  }
  if (preds.count(entry) != 0) {
    return VerificationFailed(
        StrCat("@", fn.name(), ": entry block has predecessors"));
  }

  // Type agreement checks.
  auto is_int_or_ptr = [](const Value* v) {
    return v->type()->IsInt() || v->type()->IsPointer();
  };
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      auto fail = [&](const std::string& why) {
        return VerificationFailed(StrCat("@", fn.name(), ": ",
                                         OpcodeName(inst->opcode()), " ",
                                         why));
      };
      if (inst->IsBinaryOp()) {
        if (inst->operand(0)->type() != inst->operand(1)->type() ||
            inst->operand(0)->type() != inst->type()) {
          return VerificationFailed(StrCat("@", fn.name(),
                                           ": binary operand type mismatch"));
        }
        // fadd..fdiv close the binary-op range.
        bool float_op = inst->opcode() >= Opcode::kFAdd;
        if (float_op != inst->type()->IsFloat() ||
            (!float_op && !is_int_or_ptr(inst.get()))) {
          return fail(StrCat("on ", inst->type()->ToString()));
        }
      }
      switch (inst->opcode()) {
        case Opcode::kTrunc:
        case Opcode::kZExt:
        case Opcode::kSExt:
        case Opcode::kBitcast:
        case Opcode::kPtrToInt:
        case Opcode::kIntToPtr:
        case Opcode::kSIToFP:
        case Opcode::kFPToSI: {
          const Type* from =
              static_cast<const CastInst*>(inst.get())->src()->type();
          if (!CastClassesAgree(inst->opcode(), from, inst->type())) {
            return fail(StrCat("from ", from->ToString(), " to ",
                               inst->type()->ToString()));
          }
          break;
        }
        case Opcode::kICmp:
        case Opcode::kFCmp: {
          const auto* cmp = static_cast<const CmpInst*>(inst.get());
          bool ok = inst->opcode() == Opcode::kICmp
                        ? is_int_or_ptr(cmp->lhs()) && is_int_or_ptr(cmp->rhs())
                        : cmp->lhs()->type()->IsFloat() &&
                              cmp->rhs()->type()->IsFloat();
          if (!ok) {
            return fail(StrCat("on ", cmp->lhs()->type()->ToString(), " and ",
                               cmp->rhs()->type()->ToString()));
          }
          break;
        }
        case Opcode::kSelect: {
          const auto* sel = static_cast<const SelectInst*>(inst.get());
          if (!sel->condition()->type()->IsInt()) {
            return fail("condition is not an integer");
          }
          if (sel->true_value()->type() != inst->type() ||
              sel->false_value()->type() != inst->type()) {
            return fail("arm type mismatch");
          }
          break;
        }
        case Opcode::kSwitch: {
          const auto* sw = static_cast<const SwitchInst*>(inst.get());
          if (!sw->condition()->type()->IsInt()) {
            return fail("condition is not an integer");
          }
          break;
        }
        case Opcode::kFree: {
          const auto* f = static_cast<const FreeInst*>(inst.get());
          if (!f->pointer()->type()->IsPointer()) {
            return fail("of a non-pointer");
          }
          break;
        }
        case Opcode::kAtomicLIS:
        case Opcode::kCmpXchg: {
          // Both operate on the pointee in place: an integer or pointer
          // word, with every value operand of that type.
          if (!is_int_or_ptr(inst.get())) {
            return fail(StrCat("on ", inst->type()->ToString()));
          }
          for (size_t i = 1; i < inst->num_operands(); ++i) {
            if (inst->operand(i)->type() != inst->type()) {
              return fail("operand type mismatch");
            }
          }
          break;
        }
        case Opcode::kLoad: {
          const auto* load = static_cast<const LoadInst*>(inst.get());
          const Type* pt = load->pointer()->type();
          if (!pt->IsPointer() ||
              static_cast<const PointerType*>(pt)->pointee() != inst->type()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": load type mismatch"));
          }
          break;
        }
        case Opcode::kStore: {
          const auto* store = static_cast<const StoreInst*>(inst.get());
          const Type* pt = store->pointer()->type();
          if (!pt->IsPointer() ||
              static_cast<const PointerType*>(pt)->pointee() !=
                  store->stored_value()->type()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": store type mismatch"));
          }
          break;
        }
        case Opcode::kGetElementPtr: {
          const auto* gep = static_cast<const GetElementPtrInst*>(inst.get());
          if (!gep->base()->type()->IsPointer()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": gep base not a pointer"));
          }
          std::vector<Value*> indices;
          for (size_t i = 0; i < gep->num_indices(); ++i) {
            indices.push_back(gep->index(i));
          }
          size_t dynamic = 0;
          for (const Value* idx : indices) {
            if (!idx->type()->IsInt()) {
              return VerificationFailed(
                  StrCat("@", fn.name(), ": gep index is not an integer"));
            }
            dynamic += idx->value_kind() != ValueKind::kConstantInt;
          }
          if (dynamic > kMaxDynamicGepIndices) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": gep has more than ",
                       kMaxDynamicGepIndices, " dynamic indices"));
          }
          Result<const Type*> indexed = GepIndexedType(
              static_cast<const PointerType*>(gep->base()->type())->pointee(),
              indices);
          if (!indexed.ok()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": ", indexed.status().message()));
          }
          if (!gep->type()->IsPointer() ||
              static_cast<const PointerType*>(gep->type())->pointee() !=
                  indexed.value()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": gep result type mismatch"));
          }
          break;
        }
        case Opcode::kCall: {
          const auto* call = static_cast<const CallInst*>(inst.get());
          const Type* ct = call->callee()->type();
          if (!ct->IsPointer() ||
              !static_cast<const PointerType*>(ct)->pointee()->IsFunction()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": call callee not a function pointer"));
          }
          const auto* ft = static_cast<const FunctionType*>(
              static_cast<const PointerType*>(ct)->pointee());
          if (ft->return_type() != inst->type()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": call return type mismatch"));
          }
          if (!ft->is_vararg() && ft->params().size() != call->num_args()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": call arity mismatch calling ",
                       call->callee()->name()));
          }
          for (size_t i = 0; i < ft->params().size() && i < call->num_args();
               ++i) {
            if (call->arg(i)->type() != ft->params()[i]) {
              return VerificationFailed(StrCat("@", fn.name(), ": call arg ", i,
                                               " type mismatch calling ",
                                               call->callee()->name()));
            }
          }
          break;
        }
        case Opcode::kAlloca:
        case Opcode::kMalloc: {
          const Type* allocated =
              inst->opcode() == Opcode::kAlloca
                  ? static_cast<const AllocaInst*>(inst.get())
                        ->allocated_type()
                  : static_cast<const MallocInst*>(inst.get())
                        ->allocated_type();
          if (!IsSized(allocated)) {
            return VerificationFailed(StrCat(
                "@", fn.name(), ": allocation of unsized (opaque) type"));
          }
          if (!inst->operand(0)->type()->IsInt()) {
            return fail("count is not an integer");
          }
          break;
        }
        case Opcode::kBr: {
          const auto* br = static_cast<const BranchInst*>(inst.get());
          if (br->is_conditional() && !br->condition()->type()->IsInt()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": branch condition not i1"));
          }
          break;
        }
        case Opcode::kRet: {
          const auto* ret = static_cast<const RetInst*>(inst.get());
          const Type* expected = fn.function_type()->return_type();
          if (ret->has_value()) {
            if (ret->value()->type() != expected) {
              return VerificationFailed(
                  StrCat("@", fn.name(), ": ret value type mismatch"));
            }
          } else if (!expected->IsVoid()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": ret void from non-void function"));
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // Phi coherence: incoming blocks exactly match predecessors.
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != Opcode::kPhi) {
        continue;
      }
      const auto* phi = static_cast<const PhiInst*>(inst.get());
      std::set<const BasicBlock*> incoming;
      for (size_t i = 0; i < phi->num_incoming(); ++i) {
        if (phi->incoming_value(i)->type() != phi->type()) {
          return VerificationFailed(
              StrCat("@", fn.name(), ": phi incoming type mismatch"));
        }
        incoming.insert(phi->incoming_block(i));
      }
      std::set<const BasicBlock*> expected(preds[bb.get()].begin(),
                                           preds[bb.get()].end());
      if (incoming != expected) {
        return VerificationFailed(StrCat(
            "@", fn.name(), " block ", bb->name(),
            ": phi incoming blocks do not match predecessors"));
      }
    }
  }

  // SSA dominance: every instruction operand that is itself an instruction
  // must dominate the use; arguments/constants always dominate.
  DominatorTree dom(fn);
  std::map<const Instruction*, std::pair<const BasicBlock*, size_t>> position;
  for (const auto& bb : fn.blocks()) {
    for (size_t i = 0; i < bb->instructions().size(); ++i) {
      position[bb->instructions()[i].get()] = {bb.get(), i};
    }
  }
  for (const auto& bb : fn.blocks()) {
    if (!dom.IsReachable(bb.get())) {
      continue;
    }
    for (size_t i = 0; i < bb->instructions().size(); ++i) {
      const Instruction* inst = bb->instructions()[i].get();
      auto check_use = [&](const Value* operand,
                           const BasicBlock* use_block,
                           size_t use_index) -> Status {
        const auto* def = dynamic_cast<const Instruction*>(operand);
        if (def == nullptr) {
          return OkStatus();
        }
        auto it = position.find(def);
        if (it == position.end()) {
          return VerificationFailed(
              StrCat("@", fn.name(), ": use of instruction from another "
                     "function"));
        }
        const auto& [def_block, def_index] = it->second;
        if (def_block == use_block) {
          if (def_index >= use_index) {
            return VerificationFailed(StrCat("@", fn.name(), " block ",
                                             use_block->name(),
                                             ": def does not precede use"));
          }
          return OkStatus();
        }
        if (!dom.Dominates(def_block, use_block)) {
          return VerificationFailed(StrCat("@", fn.name(),
                                           ": definition does not dominate "
                                           "use of %", def->name()));
        }
        return OkStatus();
      };

      if (inst->opcode() == Opcode::kPhi) {
        const auto* phi = static_cast<const PhiInst*>(inst);
        for (size_t k = 0; k < phi->num_incoming(); ++k) {
          // A phi use must dominate the end of the incoming block.
          const auto* def =
              dynamic_cast<const Instruction*>(phi->incoming_value(k));
          if (def == nullptr) {
            continue;
          }
          auto it = position.find(def);
          if (it == position.end()) {
            return VerificationFailed(
                StrCat("@", fn.name(), ": phi uses foreign instruction"));
          }
          const BasicBlock* in = phi->incoming_block(k);
          if (it->second.first != in && !dom.Dominates(it->second.first, in)) {
            return VerificationFailed(
                StrCat("@", fn.name(),
                       ": phi incoming def does not dominate incoming edge"));
          }
        }
        continue;
      }
      for (size_t oi = 0; oi < inst->num_operands(); ++oi) {
        SVA_RETURN_IF_ERROR(check_use(inst->operand(oi), bb.get(), i));
      }
    }
  }
  return OkStatus();
}

Status VerifyModule(const Module& module) {
  for (const auto& fn : module.functions()) {
    SVA_RETURN_IF_ERROR(VerifyFunction(module, *fn));
  }
  return OkStatus();
}

}  // namespace sva::vir
