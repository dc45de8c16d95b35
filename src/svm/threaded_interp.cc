#include "src/svm/threaded_interp.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/support/strings.h"
#include "src/svm/exec_semantics.h"
#include "src/vir/structural_verifier.h"
#include "src/vir/type.h"

namespace sva::svm {

using sem::BitWidthOf;
using sem::MaskToWidth;
using sem::SignExtend;
using vir::BasicBlock;
using vir::Function;
using vir::Instruction;
using vir::Opcode;
using vir::Value;

namespace {

bool IsTerminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kSwitch || op == Opcode::kRet ||
         op == Opcode::kUnreachable;
}

// Lowers one verified function to threaded code. Purely local: reads the
// function body and the Interpreter's public address maps, writes a
// ThreadedCode. vir::VerifyFunction rejects every shape refused here, so a
// decode error means unverified IR reached the engine; it fails the call and
// never weakens a lowering.
class Decoder {
 public:
  Decoder(const Interpreter& interp, const Function& fn, bool enforce_checks)
      : interp_(interp), fn_(fn), enforce_checks_(enforce_checks) {}

  Result<std::unique_ptr<ThreadedCode>> Decode() {
    code_ = std::make_unique<ThreadedCode>();
    code_->fn = &fn_;
    if (fn_.is_declaration() || fn_.entry() == nullptr) {
      return Unimplemented("no body to decode");
    }
    // Register allocation: one dense slot per argument and per value-
    // producing instruction, split by register file (int/pointer vs float).
    for (size_t i = 0; i < fn_.num_args(); ++i) {
      const vir::Argument* arg = fn_.arg(i);
      if (arg->type()->IsFloat()) {
        uint32_t s = NewF();
        fslot_[arg] = s;
        code_->arg_binds.push_back({s, true});
      } else {
        uint32_t s = NewI();
        islot_[arg] = s;
        code_->arg_binds.push_back({s, false});
      }
    }
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->type()->IsVoid()) {
          continue;
        }
        if (inst->type()->IsFloat()) {
          fslot_[inst.get()] = NewF();
        } else {
          islot_[inst.get()] = NewI();
        }
      }
    }
    // Encode the entry block at op 0, then the rest in declaration order.
    SVA_RETURN_IF_ERROR(EncodeBlock(fn_.entry()));
    for (const auto& block : fn_.blocks()) {
      if (block.get() != fn_.entry()) {
        SVA_RETURN_IF_ERROR(EncodeBlock(block.get()));
      }
    }
    SVA_RETURN_IF_ERROR(LinkEdges());
    code_->num_int_slots = next_int_;
    code_->num_float_slots = next_float_;
    return std::move(code_);
  }

 private:
  uint32_t NewI() { return next_int_++; }
  uint32_t NewF() { return next_float_++; }

  // Slot for `v` read as an integer/pointer. Constants (including global
  // and function addresses, which are fixed once Initialize() has laid out
  // the module — decode is lazy and always runs after that) become
  // initialized slots.
  Result<uint32_t> ISlotOf(const Value* v) {
    switch (v->value_kind()) {
      case vir::ValueKind::kConstantInt:
        return IConst(static_cast<const vir::ConstantInt*>(v)->zext_value());
      case vir::ValueKind::kConstantNull:
      case vir::ValueKind::kConstantUndef:
        return IConst(0);
      case vir::ValueKind::kGlobalVariable: {
        uint64_t addr = interp_.GlobalAddress(v->name());
        if (addr == 0) {
          return Unimplemented(StrCat("unlaid global @", v->name()));
        }
        return IConst(addr);
      }
      case vir::ValueKind::kFunction: {
        uint64_t addr = interp_.FunctionAddress(v->name());
        if (addr == 0) {
          return Unimplemented(StrCat("unassigned function @", v->name()));
        }
        return IConst(addr);
      }
      case vir::ValueKind::kConstantFloat:
        return Unimplemented("float constant in integer context");
      case vir::ValueKind::kArgument:
      case vir::ValueKind::kInstruction: {
        auto it = islot_.find(v);
        if (it == islot_.end()) {
          return Unimplemented("integer read of non-integer value");
        }
        return it->second;
      }
    }
    return Unimplemented("bad value kind");
  }

  Result<uint32_t> FSlotOf(const Value* v) {
    switch (v->value_kind()) {
      case vir::ValueKind::kConstantFloat:
        return FConst(static_cast<const vir::ConstantFloat*>(v)->value());
      case vir::ValueKind::kConstantUndef:
        return FConst(0.0);
      case vir::ValueKind::kArgument:
      case vir::ValueKind::kInstruction: {
        auto it = fslot_.find(v);
        if (it == fslot_.end()) {
          return Unimplemented("float read of non-float value");
        }
        return it->second;
      }
      default:
        return Unimplemented("bad value in float context");
    }
  }

  Result<uint32_t> IConst(uint64_t value) {
    auto it = iconst_.find(value);
    if (it != iconst_.end()) {
      return it->second;
    }
    uint32_t s = NewI();
    iconst_[value] = s;
    code_->iconst_inits.emplace_back(s, value);
    return s;
  }

  Result<uint32_t> FConst(double value) {
    uint64_t key;
    static_assert(sizeof(key) == sizeof(value));
    std::memcpy(&key, &value, sizeof(key));
    auto it = fconst_.find(key);
    if (it != fconst_.end()) {
      return it->second;
    }
    uint32_t s = NewF();
    fconst_[key] = s;
    code_->fconst_inits.emplace_back(s, value);
    return s;
  }

  // Destination slot of a value-producing instruction.
  uint32_t DstOf(const Instruction* inst) {
    if (inst->type()->IsFloat()) {
      return fslot_.at(inst);
    }
    return islot_.at(inst);
  }

  uint32_t PendEdge(const BasicBlock* from, const BasicBlock* to) {
    code_->edges.emplace_back();
    pending_.emplace_back(from, to);
    return static_cast<uint32_t>(code_->edges.size() - 1);
  }

  Status EncodeBlock(const BasicBlock* block) {
    const auto& insts = block->instructions();
    size_t first = 0;
    while (first < insts.size() &&
           insts[first]->opcode() == Opcode::kPhi) {
      ++first;
    }
    if (first > 0 && block == fn_.entry()) {
      return Unimplemented("phi in entry block");
    }
    if (first > vir::kMaxPhisPerBlock) {
      return Unimplemented("too many phis in one block");
    }
    phi_count_[block] = first;
    block_start_[block] = static_cast<uint32_t>(code_->ops.size());
    bool terminated = false;
    for (size_t k = first; k < insts.size(); ++k) {
      const Instruction* inst = insts[k].get();
      if (inst->opcode() == Opcode::kPhi) {
        return Unimplemented("phi after non-phi");
      }
      SVA_RETURN_IF_ERROR(EncodeInst(block, inst));
      if (IsTerminator(inst->opcode())) {
        terminated = true;
        break;  // Anything after a terminator is dead in both tiers.
      }
    }
    if (!terminated) {
      return Unimplemented("block without terminator");
    }
    return OkStatus();
  }

  Status EncodeInst(const BasicBlock* block, const Instruction* inst) {
    Op op;
    switch (inst->opcode()) {
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kUDiv: case Opcode::kSDiv: case Opcode::kURem:
      case Opcode::kSRem: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kShl: case Opcode::kLShr:
      case Opcode::kAShr: {
        static_assert(static_cast<int>(Opcode::kAShr) -
                              static_cast<int>(Opcode::kAdd) ==
                          static_cast<int>(OpK::kAShr) -
                              static_cast<int>(OpK::kAdd),
                      "integer binary op blocks must stay parallel");
        op.kind = static_cast<OpK>(
            static_cast<int>(OpK::kAdd) +
            (static_cast<int>(inst->opcode()) -
             static_cast<int>(Opcode::kAdd)));
        op.bits = static_cast<uint8_t>(BitWidthOf(inst->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(inst->operand(0)));
        SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(inst->operand(1)));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMul:
      case Opcode::kFDiv: {
        static_assert(static_cast<int>(Opcode::kFDiv) -
                              static_cast<int>(Opcode::kFAdd) ==
                          static_cast<int>(OpK::kFDiv) -
                              static_cast<int>(OpK::kFAdd),
                      "float binary op blocks must stay parallel");
        op.kind = static_cast<OpK>(
            static_cast<int>(OpK::kFAdd) +
            (static_cast<int>(inst->opcode()) -
             static_cast<int>(Opcode::kFAdd)));
        SVA_ASSIGN_OR_RETURN(op.a, FSlotOf(inst->operand(0)));
        SVA_ASSIGN_OR_RETURN(op.b, FSlotOf(inst->operand(1)));
        op.dst = fslot_.at(inst);
        break;
      }
      case Opcode::kICmp: {
        const auto* cmp = static_cast<const vir::CmpInst*>(inst);
        op.kind = OpK::kICmp;
        op.bits = static_cast<uint8_t>(BitWidthOf(cmp->lhs()->type()));
        op.aux = static_cast<uint16_t>(cmp->pred());
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(cmp->lhs()));
        SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(cmp->rhs()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kFCmp: {
        const auto* cmp = static_cast<const vir::CmpInst*>(inst);
        op.kind = OpK::kFCmp;
        op.aux = static_cast<uint16_t>(cmp->pred());
        SVA_ASSIGN_OR_RETURN(op.a, FSlotOf(cmp->lhs()));
        SVA_ASSIGN_OR_RETURN(op.b, FSlotOf(cmp->rhs()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kSelect: {
        const auto* sel = static_cast<const vir::SelectInst*>(inst);
        SVA_ASSIGN_OR_RETURN(op.c, ISlotOf(sel->condition()));
        if (inst->type()->IsFloat()) {
          op.kind = OpK::kSelectF;
          SVA_ASSIGN_OR_RETURN(op.a, FSlotOf(sel->true_value()));
          SVA_ASSIGN_OR_RETURN(op.b, FSlotOf(sel->false_value()));
          op.dst = fslot_.at(inst);
        } else {
          op.kind = OpK::kSelectI;
          SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(sel->true_value()));
          SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(sel->false_value()));
          op.dst = islot_.at(inst);
        }
        break;
      }
      case Opcode::kTrunc: case Opcode::kZExt: case Opcode::kBitcast:
      case Opcode::kPtrToInt: case Opcode::kIntToPtr: {
        const auto* cast = static_cast<const vir::CastInst*>(inst);
        op.kind = OpK::kMask;
        op.bits = static_cast<uint8_t>(BitWidthOf(inst->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(cast->src()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kSExt: {
        const auto* cast = static_cast<const vir::CastInst*>(inst);
        op.kind = OpK::kSExt;
        op.bits = static_cast<uint8_t>(BitWidthOf(inst->type()));
        op.aux = static_cast<uint16_t>(BitWidthOf(cast->src()->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(cast->src()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kSIToFP: {
        const auto* cast = static_cast<const vir::CastInst*>(inst);
        op.kind = OpK::kSIToFP;
        op.aux = static_cast<uint16_t>(BitWidthOf(cast->src()->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(cast->src()));
        op.dst = fslot_.at(inst);
        break;
      }
      case Opcode::kFPToSI: {
        const auto* cast = static_cast<const vir::CastInst*>(inst);
        op.kind = OpK::kFPToSI;
        op.bits = static_cast<uint8_t>(BitWidthOf(inst->type()));
        SVA_ASSIGN_OR_RETURN(op.a, FSlotOf(cast->src()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kAlloca: {
        const auto* a = static_cast<const vir::AllocaInst*>(inst);
        op.kind = OpK::kAlloca;
        op.imm = vir::SizeOf(a->allocated_type());
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(a->count()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kMalloc: {
        const auto* m = static_cast<const vir::MallocInst*>(inst);
        op.kind = OpK::kMalloc;
        op.imm = vir::SizeOf(m->allocated_type());
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(m->count()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kFree: {
        const auto* f = static_cast<const vir::FreeInst*>(inst);
        op.kind = OpK::kFree;
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(f->pointer()));
        break;
      }
      case Opcode::kLoad: {
        const auto* load = static_cast<const vir::LoadInst*>(inst);
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(load->pointer()));
        const vir::Type* t = inst->type();
        if (t->IsFloat()) {
          op.kind = static_cast<const vir::FloatType*>(t)->bits() == 32
                        ? OpK::kLoadF32
                        : OpK::kLoadF64;
          op.dst = fslot_.at(inst);
        } else {
          op.kind = OpK::kLoadI;
          op.aux = static_cast<uint16_t>(vir::SizeOf(t));
          op.dst = islot_.at(inst);
        }
        break;
      }
      case Opcode::kStore: {
        const auto* store = static_cast<const vir::StoreInst*>(inst);
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(store->pointer()));
        const vir::Type* t = store->stored_value()->type();
        if (t->IsFloat()) {
          op.kind = static_cast<const vir::FloatType*>(t)->bits() == 32
                        ? OpK::kStoreF32
                        : OpK::kStoreF64;
          SVA_ASSIGN_OR_RETURN(op.b, FSlotOf(store->stored_value()));
        } else {
          op.kind = OpK::kStoreI;
          op.aux = static_cast<uint16_t>(vir::SizeOf(t));
          SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(store->stored_value()));
        }
        break;
      }
      case Opcode::kGetElementPtr:
        return EncodeGep(static_cast<const vir::GetElementPtrInst*>(inst));
      case Opcode::kAtomicLIS: {
        const auto* a = static_cast<const vir::AtomicLISInst*>(inst);
        op.kind = OpK::kAtomicLIS;
        op.aux = static_cast<uint16_t>(vir::SizeOf(inst->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(a->pointer()));
        SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(a->delta()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kCmpXchg: {
        const auto* c = static_cast<const vir::CmpXchgInst*>(inst);
        op.kind = OpK::kCmpXchg;
        op.aux = static_cast<uint16_t>(vir::SizeOf(inst->type()));
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(c->pointer()));
        SVA_ASSIGN_OR_RETURN(op.b, ISlotOf(c->expected()));
        SVA_ASSIGN_OR_RETURN(op.c, ISlotOf(c->desired()));
        op.dst = islot_.at(inst);
        break;
      }
      case Opcode::kWriteBarrier:
        op.kind = OpK::kNop;
        break;
      case Opcode::kCall:
        return EncodeCall(static_cast<const vir::CallInst*>(inst));
      case Opcode::kBr: {
        const auto* br = static_cast<const vir::BranchInst*>(inst);
        if (br->is_conditional()) {
          op.kind = OpK::kBrCond;
          SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(br->condition()));
          op.b = PendEdge(block, br->target(0));
          op.c = PendEdge(block, br->target(1));
        } else {
          op.kind = OpK::kBr;
          op.a = PendEdge(block, br->target(0));
        }
        break;
      }
      case Opcode::kSwitch: {
        const auto* sw = static_cast<const vir::SwitchInst*>(inst);
        op.kind = OpK::kSwitch;
        SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(sw->condition()));
        auto table = std::make_unique<SwitchTable>();
        unsigned bits = BitWidthOf(sw->condition()->type());
        table->bits = static_cast<uint8_t>(bits);
        for (size_t i = 0; i < sw->num_cases(); ++i) {
          table->cases.emplace_back(MaskToWidth(sw->case_value(i), bits),
                                    PendEdge(block, sw->case_target(i)));
        }
        table->default_edge = PendEdge(block, sw->default_target());
        op.ptr = table.get();
        code_->switch_tables.push_back(std::move(table));
        break;
      }
      case Opcode::kRet: {
        const auto* ret = static_cast<const vir::RetInst*>(inst);
        if (!ret->has_value()) {
          op.kind = OpK::kRetVoid;
        } else if (ret->value()->type()->IsFloat()) {
          op.kind = OpK::kRetF;
          SVA_ASSIGN_OR_RETURN(op.a, FSlotOf(ret->value()));
        } else {
          op.kind = OpK::kRetI;
          SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(ret->value()));
        }
        break;
      }
      case Opcode::kUnreachable:
        op.kind = OpK::kUnreachable;
        break;
      case Opcode::kPhi:
        return Unimplemented("phi outside block head");
    }
    code_->ops.push_back(op);
    return OkStatus();
  }

  Status EncodeGep(const vir::GetElementPtrInst* gep) {
    Op op;
    SVA_ASSIGN_OR_RETURN(op.a, ISlotOf(gep->base()));
    const vir::Type* current =
        static_cast<const vir::PointerType*>(gep->base()->type())->pointee();
    int64_t static_off = 0;
    uint32_t terms_start = static_cast<uint32_t>(code_->gep_terms.size());
    auto add_index = [&](const Value* idx, uint64_t scale) -> Status {
      if (idx->value_kind() == vir::ValueKind::kConstantInt) {
        static_off +=
            SignExtend(static_cast<const vir::ConstantInt*>(idx)->zext_value(),
                       BitWidthOf(idx->type())) *
            static_cast<int64_t>(scale);
        return OkStatus();
      }
      GepTerm term;
      SVA_ASSIGN_OR_RETURN(term.slot, ISlotOf(idx));
      term.bits = static_cast<uint8_t>(BitWidthOf(idx->type()));
      term.scale = scale;
      code_->gep_terms.push_back(term);
      return OkStatus();
    };
    SVA_RETURN_IF_ERROR(add_index(gep->index(0), vir::SizeOf(current)));
    for (size_t i = 1; i < gep->num_indices(); ++i) {
      if (current->IsArray()) {
        const auto* at = static_cast<const vir::ArrayType*>(current);
        SVA_RETURN_IF_ERROR(
            add_index(gep->index(i), vir::SizeOf(at->element())));
        current = at->element();
      } else if (current->IsStruct()) {
        const auto* st = static_cast<const vir::StructType*>(current);
        const Value* idx = gep->index(i);
        if (idx->value_kind() != vir::ValueKind::kConstantInt) {
          return Unimplemented("dynamic struct field index");
        }
        unsigned field = static_cast<unsigned>(
            static_cast<const vir::ConstantInt*>(idx)->zext_value());
        if (field >= st->fields().size()) {
          return Unimplemented("struct field index out of range");
        }
        static_off +=
            static_cast<int64_t>(vir::StructFieldOffset(st, field));
        current = st->fields()[field];
      } else {
        return Unimplemented("GEP into non-aggregate");
      }
    }
    size_t nterms = code_->gep_terms.size() - terms_start;
    op.imm = static_cast<uint64_t>(static_off);
    op.dst = islot_.at(gep);
    if (nterms == 0) {
      op.kind = OpK::kGepStatic;
    } else {
      if (nterms > vir::kMaxDynamicGepIndices) {
        return Unimplemented("too many GEP indices");
      }
      op.kind = OpK::kGepDyn;
      op.aux = static_cast<uint16_t>(nterms);
      op.b = terms_start;
    }
    code_->ops.push_back(op);
    return OkStatus();
  }

  // Lowers a direct call of a check intrinsic to its check op. Returns
  // false, encoding nothing, for a form the op does not cover (a non-void
  // call, a float argument, an unexpected arity), which stays a kCall.
  Result<bool> EncodeCheck(const vir::CallInst* call, vir::Intrinsic which) {
    Op op;
    size_t arity = 0;
    switch (which) {
      case vir::Intrinsic::kBoundsCheck:
        op.kind = OpK::kBoundsCheck;
        arity = 3;
        break;
      case vir::Intrinsic::kBoundsCheckDirect:
        op.kind = OpK::kBoundsCheckDirect;
        arity = 3;
        break;
      case vir::Intrinsic::kLSCheck:
        op.kind = OpK::kLSCheck;
        arity = 2;
        break;
      case vir::Intrinsic::kIndirectCheck:
        op.kind = OpK::kIndirectCheck;
        arity = 2;
        break;
      default:
        return false;
    }
    if (!call->type()->IsVoid() || call->num_args() != arity) {
      return false;
    }
    uint32_t slots[3] = {0, 0, 0};
    for (size_t i = 0; i < arity; ++i) {
      if (call->arg(i)->type()->IsFloat()) {
        return false;
      }
      SVA_ASSIGN_OR_RETURN(slots[i], ISlotOf(call->arg(i)));
    }
    if (!enforce_checks_) {
      op.kind = OpK::kNop;
    } else if (op.kind == OpK::kBoundsCheck || op.kind == OpK::kLSCheck) {
      // (pool, src, derived) and (pool, address).
      op.c = slots[0];
      op.a = slots[1];
      op.b = slots[2];
      op.ptr = NewCheckSite(call->arg(0));
    } else {
      // (start, derived, end) and (function pointer, target set).
      op.a = slots[0];
      op.b = slots[1];
      op.c = slots[2];
    }
    code_->ops.push_back(op);
    return true;
  }

  // A check site, resolved now when `handle` is a constant naming a pool.
  const CheckSite* NewCheckSite(const Value* handle) {
    auto site = std::make_unique<CheckSite>();
    std::optional<uint64_t> value;
    if (handle->value_kind() == vir::ValueKind::kGlobalVariable) {
      value = interp_.GlobalAddress(handle->name());
    } else if (handle->value_kind() == vir::ValueKind::kConstantInt) {
      value = static_cast<const vir::ConstantInt*>(handle)->zext_value();
    }
    if (value.has_value()) {
      site->handle = *value;
      site->pool = interp_.PoolForHandle(*value);
    }
    const CheckSite* ptr = site.get();
    code_->check_sites.push_back(std::move(site));
    return ptr;
  }

  Status EncodeCall(const vir::CallInst* call) {
    Op op;
    op.kind = OpK::kCall;
    auto site = std::make_unique<CallSite>();
    if (const auto* direct =
            dynamic_cast<const Function*>(call->callee())) {
      site->target = direct;
      // Same precedence as the interpreter: intrinsic by name first, then
      // defined body, then host binding (resolved at call time).
      site->intrinsic = vir::LookupIntrinsic(direct->name());
      if (site->intrinsic != vir::Intrinsic::kNone) {
        SVA_ASSIGN_OR_RETURN(bool lowered,
                             EncodeCheck(call, site->intrinsic));
        if (lowered) {
          return OkStatus();
        }
        site->kind = CallSite::Kind::kIntrinsic;
      } else if (!direct->is_declaration()) {
        site->kind = CallSite::Kind::kDirect;
      } else {
        site->kind = CallSite::Kind::kHost;
      }
    } else {
      site->kind = CallSite::Kind::kIndirect;
      SVA_ASSIGN_OR_RETURN(site->callee_slot, ISlotOf(call->callee()));
    }
    site->returns_void = call->type()->IsVoid();
    site->returns_float = call->type()->IsFloat();
    for (size_t i = 0; i < call->num_args(); ++i) {
      CallSite::Arg arg;
      arg.is_float = call->arg(i)->type()->IsFloat();
      if (arg.is_float) {
        SVA_ASSIGN_OR_RETURN(arg.slot, FSlotOf(call->arg(i)));
      } else {
        SVA_ASSIGN_OR_RETURN(arg.slot, ISlotOf(call->arg(i)));
      }
      site->args.push_back(arg);
    }
    if (!site->returns_void) {
      op.dst = DstOf(call);
    }
    op.ptr = site.get();
    code_->call_sites.push_back(std::move(site));
    code_->ops.push_back(op);
    return OkStatus();
  }

  // Resolves pended edges: target op index plus the phi-elimination moves
  // for the (pred, succ) pair, ordered so that running them one after
  // another gives the simultaneous assignment SSA requires.
  Status LinkEdges() {
    std::vector<Move> parallel;
    for (size_t i = 0; i < pending_.size(); ++i) {
      const auto& [from, to] = pending_[i];
      Edge& e = code_->edges[i];
      e.target = block_start_.at(to);
      size_t phis = phi_count_.at(to);
      e.phi_steps = static_cast<uint16_t>(phis);
      parallel.clear();
      for (size_t k = 0; k < phis; ++k) {
        const auto* phi = static_cast<const vir::PhiInst*>(
            to->instructions()[k].get());
        const Value* in = phi->ValueForBlock(from);
        if (in == nullptr) {
          return Unimplemented("phi missing incoming block");
        }
        Move mv;
        if (phi->type()->IsFloat()) {
          mv.is_float = true;
          SVA_ASSIGN_OR_RETURN(mv.src, FSlotOf(in));
          mv.dst = fslot_.at(phi);
        } else {
          SVA_ASSIGN_OR_RETURN(mv.src, ISlotOf(in));
          mv.dst = islot_.at(phi);
        }
        parallel.push_back(mv);
      }
      e.moves_start = static_cast<uint32_t>(code_->moves.size());
      Sequentialize(parallel);
      e.moves_count =
          static_cast<uint32_t>(code_->moves.size() - e.moves_start);
    }
    return OkStatus();
  }

  // Appends `parallel` (distinct destinations) to code_->moves in an order
  // where no move overwrites a slot a later move still reads. A move runs
  // once no pending move reads its destination; when only cycles remain,
  // one destination is saved in a temp slot (one per register file) and
  // its readers read the temp instead, which opens the cycle. Linear in
  // the number of moves: a block may carry up to kMaxPhisPerBlock phis.
  void Sequentialize(std::vector<Move>& parallel) {
    std::erase_if(parallel, [](const Move& m) { return m.src == m.dst; });
    const size_t n = parallel.size();
    if (n <= 1) {
      code_->moves.insert(code_->moves.end(), parallel.begin(),
                          parallel.end());
      return;
    }
    auto key = [](uint32_t slot, bool is_float) {
      return uint64_t{slot} << 1 | (is_float ? 1 : 0);
    };
    std::unordered_map<uint64_t, size_t> writer;
    std::unordered_map<uint64_t, std::vector<size_t>> readers;
    for (size_t k = 0; k < n; ++k) {
      writer[key(parallel[k].dst, parallel[k].is_float)] = k;
      readers[key(parallel[k].src, parallel[k].is_float)].push_back(k);
    }
    // Moves still to run that read move k's destination.
    std::vector<size_t> blocked(n, 0);
    std::vector<size_t> ready;
    for (size_t k = 0; k < n; ++k) {
      auto r = readers.find(key(parallel[k].dst, parallel[k].is_float));
      blocked[k] = r == readers.end() ? 0 : r->second.size();
      if (blocked[k] == 0) {
        ready.push_back(k);
      }
    }
    std::vector<bool> done(n, false);
    size_t next = 0;
    while (true) {
      while (!ready.empty()) {
        const size_t k = ready.back();
        ready.pop_back();
        code_->moves.push_back(parallel[k]);
        done[k] = true;
        auto w = writer.find(key(parallel[k].src, parallel[k].is_float));
        if (w != writer.end() && !done[w->second] &&
            --blocked[w->second] == 0) {
          ready.push_back(w->second);
        }
      }
      while (next < n && done[next]) {
        ++next;
      }
      if (next == n) {
        return;
      }
      // Only cycles remain.
      Move& head = parallel[next];
      uint32_t& temp = head.is_float ? ftemp_ : itemp_;
      if (temp == kNoTemp) {
        temp = head.is_float ? NewF() : NewI();
      }
      code_->moves.push_back({head.dst, temp, head.is_float});
      for (size_t r : readers[key(head.dst, head.is_float)]) {
        parallel[r].src = temp;
      }
      blocked[next] = 0;
      ready.push_back(next);
    }
  }

  static constexpr uint32_t kNoTemp = UINT32_MAX;
  const Interpreter& interp_;
  const Function& fn_;
  const bool enforce_checks_;
  std::unique_ptr<ThreadedCode> code_;
  uint32_t next_int_ = 0;
  uint32_t next_float_ = 0;
  std::map<const Value*, uint32_t> islot_;
  std::map<const Value*, uint32_t> fslot_;
  std::map<uint64_t, uint32_t> iconst_;
  std::map<uint64_t, uint32_t> fconst_;  // Keyed by bit pattern.
  std::map<const BasicBlock*, uint32_t> block_start_;
  std::map<const BasicBlock*, size_t> phi_count_;
  std::vector<std::pair<const BasicBlock*, const BasicBlock*>> pending_;
  // Cycle-breaking temps for phi moves, allocated on first need.
  uint32_t itemp_ = kNoTemp;
  uint32_t ftemp_ = kNoTemp;
};

}  // namespace

ThreadedEngine::ThreadedEngine(Interpreter& interp) : interp_(interp) {}
ThreadedEngine::~ThreadedEngine() = default;

Result<const ThreadedCode*> ThreadedEngine::CodeFor(const Function& fn) {
  auto it = code_.find(&fn);
  if (it != code_.end()) {
    return it->second.get();
  }
  Decoder decoder(interp_, fn, interp_.options_.enforce_checks);
  auto decoded = decoder.Decode();
  if (!decoded.ok()) {
    return Internal(StrCat("threaded decode of @", fn.name(), ": ",
                           decoded.status().message()));
  }
  const ThreadedCode* ptr = decoded->get();
  code_[&fn] = std::move(*decoded);
  return ptr;
}

// Threaded dispatch: computed goto on GCC/Clang, a switch loop elsewhere.
#if defined(__GNUC__) || defined(__clang__)
#define SVA_THREADED_GOTO 1
#endif

ExecResult ThreadedEngine::Execute(const ThreadedCode& code,
                                   std::span<const uint64_t> args,
                                   std::span<const double> fargs,
                                   uint64_t depth) {
  ExecResult result;
  ++interp_.tier_threaded_fns_;

  // Register files. Constants first (they were deduplicated at decode), then
  // arguments, mirroring the interpreter's missing-argument-reads-as-zero
  // behaviour.
  std::vector<uint64_t> regs(code.num_int_slots, 0);
  std::vector<double> fregs(code.num_float_slots, 0.0);
  for (const auto& [slot, v] : code.iconst_inits) {
    regs[slot] = v;
  }
  for (const auto& [slot, v] : code.fconst_inits) {
    fregs[slot] = v;
  }
  size_t fi = 0;
  for (size_t i = 0; i < code.arg_binds.size(); ++i) {
    const ThreadedCode::ArgBind& bind = code.arg_binds[i];
    if (bind.is_float) {
      fregs[bind.slot] = fi < fargs.size() ? fargs[fi++] : 0.0;
    } else {
      regs[bind.slot] = i < args.size() ? args[i] : 0;
    }
  }

  const uint64_t saved_stack = interp_.stack_top_;
  const uint64_t max_steps = interp_.options_.max_steps;
  uint64_t steps = interp_.steps_;
  uint64_t ops_executed = 0;

  // Scratch buffers reused across ops.
  std::vector<uint64_t> call_args;
  std::vector<double> call_fargs;

  const Op* const ops = code.ops.data();
  const Op* op = nullptr;
  uint32_t pc = 0;

  auto fail = [&](Status s) {
    interp_.stack_top_ = saved_stack;
    interp_.steps_ = steps;
    interp_.tier_threaded_ops_ += ops_executed;
    result.status = std::move(s);
    return result;
  };
  auto finish = [&]() {
    interp_.stack_top_ = saved_stack;
    interp_.steps_ = steps;
    interp_.tier_threaded_ops_ += ops_executed;
    result.status = OkStatus();
    return result;
  };
  // The metapool of a check site: the cached one while the handle matches,
  // else a fresh lookup (null for a bad handle).
  runtime::MetaPoolRuntime& checks = interp_.pools_;
  auto site_pool = [&](const Op& check) -> runtime::MetaPool* {
    const CheckSite& site = *static_cast<const CheckSite*>(check.ptr);
    const uint64_t handle = regs[check.c];
    if (site.pool == nullptr || site.handle != handle) {
      site.handle = handle;
      site.pool = interp_.PoolForHandle(handle);
    }
    return site.pool;
  };
  // Phi elimination: the edge's moves, already ordered at decode.
  auto take_edge = [&](uint32_t edge_idx) {
    const Edge& e = code.edges[edge_idx];
    const Move* mv = code.moves.data() + e.moves_start;
    for (uint32_t k = 0; k < e.moves_count; ++k) {
      if (mv[k].is_float) {
        fregs[mv[k].dst] = fregs[mv[k].src];
      } else {
        regs[mv[k].dst] = regs[mv[k].src];
      }
    }
    // Step parity: the interpreter charges one step per phi it retires.
    steps += e.phi_steps;
    ops_executed += e.phi_steps;
    pc = e.target;
  };

#ifdef SVA_THREADED_GOTO
  static const void* kDispatch[] = {
      &&L_kAdd, &&L_kSub, &&L_kMul, &&L_kUDiv, &&L_kSDiv, &&L_kURem,
      &&L_kSRem, &&L_kAnd, &&L_kOr, &&L_kXor, &&L_kShl, &&L_kLShr,
      &&L_kAShr, &&L_kFAdd, &&L_kFSub, &&L_kFMul, &&L_kFDiv, &&L_kICmp,
      &&L_kFCmp, &&L_kSelectI, &&L_kSelectF, &&L_kMask, &&L_kSExt,
      &&L_kSIToFP, &&L_kFPToSI, &&L_kAlloca, &&L_kMalloc, &&L_kFree,
      &&L_kLoadI, &&L_kLoadF32, &&L_kLoadF64, &&L_kStoreI, &&L_kStoreF32,
      &&L_kStoreF64, &&L_kGepStatic, &&L_kGepDyn, &&L_kAtomicLIS,
      &&L_kCmpXchg, &&L_kCall, &&L_kBr, &&L_kBrCond, &&L_kSwitch,
      &&L_kRetVoid, &&L_kRetI, &&L_kRetF, &&L_kUnreachable, &&L_kNop,
      &&L_kBoundsCheck, &&L_kBoundsCheckDirect, &&L_kLSCheck,
      &&L_kIndirectCheck,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                    static_cast<size_t>(OpK::kCount),
                "dispatch table must cover every OpK");
#define SVA_DISPATCH()                                        \
  do {                                                        \
    op = &ops[pc];                                            \
    ++ops_executed;                                           \
    if (++steps > max_steps) {                                \
      return fail(Internal("instruction budget exhausted"));  \
    }                                                         \
    goto* kDispatch[static_cast<size_t>(op->kind)];           \
  } while (0)
#define SVA_CASE(k) L_##k:
#define SVA_NEXT() \
  do {             \
    ++pc;          \
    SVA_DISPATCH(); \
  } while (0)
#define SVA_JUMP() SVA_DISPATCH()

  SVA_DISPATCH();
#else
#define SVA_CASE(k) case OpK::k:
#define SVA_NEXT() \
  {                \
    ++pc;          \
    break;         \
  }
#define SVA_JUMP() break

  for (;;) {
    op = &ops[pc];
    ++ops_executed;
    if (++steps > max_steps) {
      return fail(Internal("instruction budget exhausted"));
    }
    switch (op->kind) {
#endif

  // --- Integer binary ops. The trap paths (div/rem by zero, MIN/-1
  // overflow) share sem::EvalIntBinary with the interpreter; the common
  // non-trapping ops are open-coded on the already-masked slot values.
  SVA_CASE(kAdd) {
    regs[op->dst] = MaskToWidth(regs[op->a] + regs[op->b], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kSub) {
    regs[op->dst] = MaskToWidth(regs[op->a] - regs[op->b], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kMul) {
    regs[op->dst] = MaskToWidth(MaskToWidth(regs[op->a], op->bits) *
                                    MaskToWidth(regs[op->b], op->bits),
                                op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kUDiv)
  SVA_CASE(kSDiv)
  SVA_CASE(kURem)
  SVA_CASE(kSRem) {
    static_assert(static_cast<int>(OpK::kSRem) - static_cast<int>(OpK::kAdd) ==
                  static_cast<int>(Opcode::kSRem) -
                      static_cast<int>(Opcode::kAdd));
    Opcode opcode = static_cast<Opcode>(
        static_cast<int>(Opcode::kAdd) +
        (static_cast<int>(op->kind) - static_cast<int>(OpK::kAdd)));
    uint64_t out = 0;
    sem::ArithTrap trap = sem::EvalIntBinary(
        opcode, MaskToWidth(regs[op->a], op->bits),
        MaskToWidth(regs[op->b], op->bits), op->bits, &out);
    if (trap != sem::ArithTrap::kNone) {
      return fail(sem::ArithTrapStatus(trap));
    }
    regs[op->dst] = MaskToWidth(out, op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kAnd) {
    regs[op->dst] = MaskToWidth(regs[op->a] & regs[op->b], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kOr) {
    regs[op->dst] = MaskToWidth(regs[op->a] | regs[op->b], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kXor) {
    regs[op->dst] = MaskToWidth(regs[op->a] ^ regs[op->b], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kShl)
  SVA_CASE(kLShr)
  SVA_CASE(kAShr) {
    Opcode opcode = static_cast<Opcode>(
        static_cast<int>(Opcode::kAdd) +
        (static_cast<int>(op->kind) - static_cast<int>(OpK::kAdd)));
    uint64_t out = 0;
    sem::EvalIntBinary(opcode, MaskToWidth(regs[op->a], op->bits),
                       MaskToWidth(regs[op->b], op->bits), op->bits, &out);
    regs[op->dst] = MaskToWidth(out, op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kFAdd) {
    fregs[op->dst] = fregs[op->a] + fregs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kFSub) {
    fregs[op->dst] = fregs[op->a] - fregs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kFMul) {
    fregs[op->dst] = fregs[op->a] * fregs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kFDiv) {
    fregs[op->dst] = fregs[op->a] / fregs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kICmp) {
    regs[op->dst] = sem::EvalICmp(static_cast<vir::CmpPred>(op->aux),
                                  regs[op->a], regs[op->b], op->bits)
                        ? 1
                        : 0;
    SVA_NEXT();
  }
  SVA_CASE(kFCmp) {
    regs[op->dst] = sem::EvalFCmp(static_cast<vir::CmpPred>(op->aux),
                                  fregs[op->a], fregs[op->b])
                        ? 1
                        : 0;
    SVA_NEXT();
  }
  SVA_CASE(kSelectI) {
    regs[op->dst] = (regs[op->c] & 1) != 0 ? regs[op->a] : regs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kSelectF) {
    fregs[op->dst] = (regs[op->c] & 1) != 0 ? fregs[op->a] : fregs[op->b];
    SVA_NEXT();
  }
  SVA_CASE(kMask) {
    regs[op->dst] = MaskToWidth(regs[op->a], op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kSExt) {
    regs[op->dst] = MaskToWidth(
        static_cast<uint64_t>(SignExtend(regs[op->a], op->aux)), op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kSIToFP) {
    fregs[op->dst] = static_cast<double>(SignExtend(regs[op->a], op->aux));
    SVA_NEXT();
  }
  SVA_CASE(kFPToSI) {
    regs[op->dst] = MaskToWidth(
        static_cast<uint64_t>(static_cast<int64_t>(fregs[op->a])), op->bits);
    SVA_NEXT();
  }
  SVA_CASE(kAlloca) {
    auto base = interp_.AllocaBytes(op->imm, regs[op->a]);
    if (!base.ok()) {
      return fail(base.status());
    }
    regs[op->dst] = *base;
    SVA_NEXT();
  }
  SVA_CASE(kMalloc) {
    auto addr = interp_.MallocBytes(op->imm, regs[op->a]);
    if (!addr.ok()) {
      return fail(addr.status());
    }
    regs[op->dst] = *addr;
    SVA_NEXT();
  }
  SVA_CASE(kFree) {
    Status s = interp_.FreeAddr(regs[op->a]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kLoadI) {
    auto v = interp_.memory_->Read(regs[op->a],
                                   static_cast<unsigned>(op->aux));
    if (!v.ok()) {
      return fail(v.status());
    }
    regs[op->dst] = *v;
    SVA_NEXT();
  }
  SVA_CASE(kLoadF32) {
    auto v = interp_.memory_->ReadF32(regs[op->a]);
    if (!v.ok()) {
      return fail(v.status());
    }
    fregs[op->dst] = *v;
    SVA_NEXT();
  }
  SVA_CASE(kLoadF64) {
    auto v = interp_.memory_->ReadF64(regs[op->a]);
    if (!v.ok()) {
      return fail(v.status());
    }
    fregs[op->dst] = *v;
    SVA_NEXT();
  }
  SVA_CASE(kStoreI) {
    Status s = interp_.memory_->Write(
        regs[op->a], static_cast<unsigned>(op->aux), regs[op->b]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kStoreF32) {
    Status s = interp_.memory_->WriteF32(regs[op->a],
                                         static_cast<float>(fregs[op->b]));
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kStoreF64) {
    Status s = interp_.memory_->WriteF64(regs[op->a], fregs[op->b]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kGepStatic) {
    regs[op->dst] = regs[op->a] + op->imm;
    SVA_NEXT();
  }
  SVA_CASE(kGepDyn) {
    int64_t offset = static_cast<int64_t>(op->imm);
    const GepTerm* terms = code.gep_terms.data() + op->b;
    for (uint16_t k = 0; k < op->aux; ++k) {
      offset += SignExtend(regs[terms[k].slot], terms[k].bits) *
                static_cast<int64_t>(terms[k].scale);
    }
    regs[op->dst] = regs[op->a] + static_cast<uint64_t>(offset);
    SVA_NEXT();
  }
  SVA_CASE(kAtomicLIS) {
    auto old = interp_.memory_->Read(regs[op->a],
                                     static_cast<unsigned>(op->aux));
    if (!old.ok()) {
      return fail(old.status());
    }
    Status s = interp_.memory_->Write(
        regs[op->a], static_cast<unsigned>(op->aux), *old + regs[op->b]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    regs[op->dst] = *old;
    SVA_NEXT();
  }
  SVA_CASE(kCmpXchg) {
    auto old = interp_.memory_->Read(regs[op->a],
                                     static_cast<unsigned>(op->aux));
    if (!old.ok()) {
      return fail(old.status());
    }
    if (*old == regs[op->b]) {
      Status s = interp_.memory_->Write(
          regs[op->a], static_cast<unsigned>(op->aux), regs[op->c]);
      if (!s.ok()) {
        return fail(std::move(s));
      }
    }
    regs[op->dst] = *old;
    SVA_NEXT();
  }
  SVA_CASE(kCall) {
    const CallSite& site = *static_cast<const CallSite*>(op->ptr);
    call_args.clear();
    call_fargs.clear();
    for (const CallSite::Arg& arg : site.args) {
      if (arg.is_float) {
        call_fargs.push_back(fregs[arg.slot]);
        call_args.push_back(0);
      } else {
        call_args.push_back(regs[arg.slot]);
      }
    }
    const Function* target = site.target;
    CallSite::Kind kind = site.kind;
    vir::Intrinsic intrinsic = site.intrinsic;
    if (kind == CallSite::Kind::kIndirect) {
      uint64_t fp = regs[site.callee_slot];
      target = interp_.FunctionAt(fp);
      if (target == nullptr) {
        return fail(SafetyViolation(
            StrCat("indirect call to non-code address 0x", std::hex, fp)));
      }
      intrinsic = vir::LookupIntrinsic(target->name());
      if (intrinsic != vir::Intrinsic::kNone) {
        kind = CallSite::Kind::kIntrinsic;
      } else if (!target->is_declaration()) {
        kind = CallSite::Kind::kDirect;
      } else {
        kind = CallSite::Kind::kHost;
      }
    }
    if (site.returns_float && kind != CallSite::Kind::kDirect) {
      return fail(sem::FloatCallToIntegerTarget(target->name()));
    }
    if (kind == CallSite::Kind::kIntrinsic) {
      auto r = interp_.RunIntrinsicById(intrinsic, call_args);
      if (!r.ok()) {
        return fail(r.status());
      }
      if (!site.returns_void) {
        regs[op->dst] = *r;
      }
    } else if (kind == CallSite::Kind::kDirect) {
      // Nested calls go back through RunFunction, which decodes the callee
      // on first use. The shared step budget crosses the boundary via
      // steps_.
      interp_.steps_ = steps;
      ExecResult sub =
          interp_.RunFunction(*target, call_args, call_fargs, depth + 1);
      steps = interp_.steps_;
      if (!sub.status.ok()) {
        return fail(std::move(sub.status));
      }
      if (!site.returns_void) {
        if (site.returns_float) {
          fregs[op->dst] = sub.fvalue;
        } else {
          regs[op->dst] = sub.value;
        }
      }
    } else {
      auto host = interp_.host_fns_.find(target->name());
      if (host == interp_.host_fns_.end()) {
        return fail(Unimplemented(
            StrCat("call to unbound external @", target->name())));
      }
      auto r = host->second(interp_, call_args);
      if (!r.ok()) {
        return fail(r.status());
      }
      if (!site.returns_void) {
        regs[op->dst] = *r;
      }
    }
    SVA_NEXT();
  }
  SVA_CASE(kBr) {
    take_edge(op->a);
    SVA_JUMP();
  }
  SVA_CASE(kBrCond) {
    take_edge((regs[op->a] & 1) != 0 ? op->b : op->c);
    SVA_JUMP();
  }
  SVA_CASE(kSwitch) {
    const SwitchTable& table = *static_cast<const SwitchTable*>(op->ptr);
    uint64_t v = MaskToWidth(regs[op->a], table.bits);
    uint32_t edge = table.default_edge;
    for (const auto& [value, target] : table.cases) {
      if (value == v) {
        edge = target;
        break;
      }
    }
    take_edge(edge);
    SVA_JUMP();
  }
  SVA_CASE(kRetVoid) {
    return finish();
  }
  SVA_CASE(kRetI) {
    result.value = regs[op->a];
    return finish();
  }
  SVA_CASE(kRetF) {
    result.fvalue = fregs[op->a];
    return finish();
  }
  SVA_CASE(kUnreachable) {
    return fail(
        Internal(StrCat("executed unreachable in @", code.fn->name())));
  }
  SVA_CASE(kNop) {
    SVA_NEXT();
  }
  // --- Run-time checks: the same MetaPoolRuntime entry points, statuses and
  // step (one per check) as the intrinsic call they replace.
  SVA_CASE(kBoundsCheck) {
    runtime::MetaPool* pool = site_pool(*op);
    if (pool == nullptr) {
      return fail(interp_.PoolArg(regs[op->c]).status());
    }
    Status s = checks.BoundsCheck(*pool, regs[op->a], regs[op->b]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kBoundsCheckDirect) {
    Status s = checks.BoundsCheckDirect(regs[op->a], regs[op->b], regs[op->c]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kLSCheck) {
    runtime::MetaPool* pool = site_pool(*op);
    if (pool == nullptr) {
      return fail(interp_.PoolArg(regs[op->c]).status());
    }
    Status s = checks.LoadStoreCheck(*pool, regs[op->a]);
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }
  SVA_CASE(kIndirectCheck) {
    Status s = checks.IndirectCallCheck(regs[op->a],
                                        interp_.RuntimeSetId(regs[op->b]));
    if (!s.ok()) {
      return fail(std::move(s));
    }
    SVA_NEXT();
  }

#ifndef SVA_THREADED_GOTO
      case OpK::kCount:
        return fail(Internal("bad threaded op"));
    }
  }
#endif

#undef SVA_DISPATCH
#undef SVA_CASE
#undef SVA_NEXT
#undef SVA_JUMP
}

}  // namespace sva::svm
