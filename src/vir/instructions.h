// SVA-Core instructions (Section 3.2): arithmetic and logic, comparisons,
// explicit branches, typed indexing (getelementptr), loads and stores, heap
// and stack allocation/deallocation, calls, casts, and the atomic extensions
// (load-increment-store, compare-and-swap, write barrier).
//
// Run-time safety operations (pchk.reg.obj, boundscheck, lscheck, ...) and
// SVA-OS operations (llva.*) are modeled as calls to intrinsic declarations,
// mirroring the paper's "exposed as an API" design; see intrinsics.h.
#ifndef SVA_SRC_VIR_INSTRUCTIONS_H_
#define SVA_SRC_VIR_INSTRUCTIONS_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/vir/value.h"

namespace sva::vir {

class BasicBlock;
class Function;

enum class Opcode {
  // Integer binary ops.
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  // Floating-point binary ops.
  kFAdd,
  kFSub,
  kFMul,
  kFDiv,
  // Comparisons.
  kICmp,
  kFCmp,
  kSelect,
  // Casts.
  kTrunc,
  kZExt,
  kSExt,
  kBitcast,
  kPtrToInt,
  kIntToPtr,
  kSIToFP,
  kFPToSI,
  // Memory.
  kAlloca,
  kLoad,
  kStore,
  kGetElementPtr,
  kMalloc,
  kFree,
  // Atomics / ordering (SVA-Core extensions).
  kAtomicLIS,  // atomic load-increment-store: returns old value, adds operand
  kCmpXchg,
  kWriteBarrier,
  // Control flow.
  kCall,
  kPhi,
  kBr,
  kSwitch,
  kRet,
  kUnreachable,
};

const char* OpcodeName(Opcode op);

// Predicates for icmp/fcmp.
enum class CmpPred {
  kEq,
  kNe,
  kUGt,
  kUGe,
  kULt,
  kULe,
  kSGt,
  kSGe,
  kSLt,
  kSLe,
};

const char* CmpPredName(CmpPred pred);

class Instruction : public Value {
 public:
  Opcode opcode() const { return opcode_; }
  BasicBlock* parent() const { return parent_; }
  void set_parent(BasicBlock* bb) { parent_ = bb; }

  size_t num_operands() const { return operands_.size(); }
  Value* operand(size_t i) const {
    assert(i < operands_.size());
    return operands_[i];
  }
  void set_operand(size_t i, Value* v) {
    assert(i < operands_.size());
    operands_[i] = v;
  }
  const std::vector<Value*>& operands() const { return operands_; }

  // Replaces every use of `from` among this instruction's operands with `to`.
  void ReplaceUsesOfWith(Value* from, Value* to);

  bool IsTerminator() const {
    return opcode_ == Opcode::kBr || opcode_ == Opcode::kSwitch ||
           opcode_ == Opcode::kRet || opcode_ == Opcode::kUnreachable;
  }
  bool IsBinaryOp() const {
    return opcode_ >= Opcode::kAdd && opcode_ <= Opcode::kFDiv;
  }
  bool IsCast() const {
    return opcode_ >= Opcode::kTrunc && opcode_ <= Opcode::kFPToSI;
  }

 protected:
  Instruction(Opcode op, const Type* type, std::vector<Value*> operands,
              std::string name)
      : Value(ValueKind::kInstruction, type, std::move(name)),
        opcode_(op),
        operands_(std::move(operands)) {}

 private:
  const Opcode opcode_;
  std::vector<Value*> operands_;
  BasicBlock* parent_ = nullptr;
};

class BinaryInst : public Instruction {
 public:
  BinaryInst(Opcode op, Value* lhs, Value* rhs, std::string name)
      : Instruction(op, lhs->type(), {lhs, rhs}, std::move(name)) {}
  Value* lhs() const { return operand(0); }
  Value* rhs() const { return operand(1); }
};

class CmpInst : public Instruction {
 public:
  CmpInst(Opcode op, CmpPred pred, const IntType* i1, Value* lhs, Value* rhs,
          std::string name)
      : Instruction(op, i1, {lhs, rhs}, std::move(name)), pred_(pred) {}
  CmpPred pred() const { return pred_; }
  Value* lhs() const { return operand(0); }
  Value* rhs() const { return operand(1); }

 private:
  const CmpPred pred_;
};

class SelectInst : public Instruction {
 public:
  SelectInst(Value* cond, Value* tval, Value* fval, std::string name)
      : Instruction(Opcode::kSelect, tval->type(), {cond, tval, fval},
                    std::move(name)) {}
  Value* condition() const { return operand(0); }
  Value* true_value() const { return operand(1); }
  Value* false_value() const { return operand(2); }
};

class CastInst : public Instruction {
 public:
  CastInst(Opcode op, Value* src, const Type* dst_type, std::string name)
      : Instruction(op, dst_type, {src}, std::move(name)) {}
  Value* src() const { return operand(0); }
};

// Stack allocation: `alloca T, N` allocates N elements of T; result T*.
class AllocaInst : public Instruction {
 public:
  AllocaInst(const PointerType* result_type, const Type* allocated, Value* count,
             std::string name)
      : Instruction(Opcode::kAlloca, result_type, {count}, std::move(name)),
        allocated_(allocated) {}
  const Type* allocated_type() const { return allocated_; }
  Value* count() const { return operand(0); }

 private:
  const Type* const allocated_;
};

// Heap allocation: `malloc T, N` — lowered by the SVM to the kernel's
// ordinary allocator (Section 3.2).
class MallocInst : public Instruction {
 public:
  MallocInst(const PointerType* result_type, const Type* allocated, Value* count,
             std::string name)
      : Instruction(Opcode::kMalloc, result_type, {count}, std::move(name)),
        allocated_(allocated) {}
  const Type* allocated_type() const { return allocated_; }
  Value* count() const { return operand(0); }

 private:
  const Type* const allocated_;
};

class FreeInst : public Instruction {
 public:
  FreeInst(const Type* void_type, Value* ptr)
      : Instruction(Opcode::kFree, void_type, {ptr}, "") {}
  Value* pointer() const { return operand(0); }
};

class LoadInst : public Instruction {
 public:
  LoadInst(const Type* result_type, Value* ptr, std::string name)
      : Instruction(Opcode::kLoad, result_type, {ptr}, std::move(name)) {}
  Value* pointer() const { return operand(0); }
};

class StoreInst : public Instruction {
 public:
  StoreInst(const Type* void_type, Value* value, Value* ptr)
      : Instruction(Opcode::kStore, void_type, {value, ptr}, "") {}
  Value* stored_value() const { return operand(0); }
  Value* pointer() const { return operand(1); }
};

// Typed indexing. All address arithmetic in SVA-Core happens here, which is
// what makes the bounds-check insertion of Section 4.5 possible: the verifier
// checks that source and derived pointer stay within one registered object.
//
// Semantics follow LLVM: the first index steps over the pointee as an array;
// subsequent indexes drill into arrays (any integer) or structs (constant
// field number).
class GetElementPtrInst : public Instruction {
 public:
  GetElementPtrInst(const PointerType* result_type, Value* base,
                    std::vector<Value*> indices, std::string name)
      : Instruction(Opcode::kGetElementPtr, result_type,
                    Concat(base, std::move(indices)), std::move(name)) {}
  Value* base() const { return operand(0); }
  size_t num_indices() const { return num_operands() - 1; }
  Value* index(size_t i) const { return operand(i + 1); }

 private:
  static std::vector<Value*> Concat(Value* base, std::vector<Value*> idx) {
    std::vector<Value*> ops;
    ops.reserve(idx.size() + 1);
    ops.push_back(base);
    for (Value* v : idx) {
      ops.push_back(v);
    }
    return ops;
  }
};

class CallInst : public Instruction {
 public:
  CallInst(const Type* result_type, Value* callee, std::vector<Value*> args,
           std::string name)
      : Instruction(Opcode::kCall, result_type, Concat(callee, std::move(args)),
                    std::move(name)) {}
  Value* callee() const { return operand(0); }
  size_t num_args() const { return num_operands() - 1; }
  Value* arg(size_t i) const { return operand(i + 1); }

  // Direct call target, or nullptr for an indirect call.
  Function* called_function() const;

 private:
  static std::vector<Value*> Concat(Value* callee, std::vector<Value*> args) {
    std::vector<Value*> ops;
    ops.reserve(args.size() + 1);
    ops.push_back(callee);
    for (Value* v : args) {
      ops.push_back(v);
    }
    return ops;
  }
};

// Atomic load-increment-store: atomically { old = *p; *p = old + delta; }.
class AtomicLISInst : public Instruction {
 public:
  AtomicLISInst(const Type* result_type, Value* ptr, Value* delta,
                std::string name)
      : Instruction(Opcode::kAtomicLIS, result_type, {ptr, delta},
                    std::move(name)) {}
  Value* pointer() const { return operand(0); }
  Value* delta() const { return operand(1); }
};

// Compare-and-swap: atomically { old = *p; if (old == expected) *p = desired; }
// returning the old value.
class CmpXchgInst : public Instruction {
 public:
  CmpXchgInst(const Type* result_type, Value* ptr, Value* expected,
              Value* desired, std::string name)
      : Instruction(Opcode::kCmpXchg, result_type, {ptr, expected, desired},
                    std::move(name)) {}
  Value* pointer() const { return operand(0); }
  Value* expected() const { return operand(1); }
  Value* desired() const { return operand(2); }
};

class WriteBarrierInst : public Instruction {
 public:
  explicit WriteBarrierInst(const Type* void_type)
      : Instruction(Opcode::kWriteBarrier, void_type, {}, "") {}
};

class PhiInst : public Instruction {
 public:
  PhiInst(const Type* type, std::string name)
      : Instruction(Opcode::kPhi, type, {}, std::move(name)) {}

  void AddIncoming(Value* value, BasicBlock* block) {
    incoming_values_.push_back(value);
    incoming_blocks_.push_back(block);
  }
  size_t num_incoming() const { return incoming_values_.size(); }
  Value* incoming_value(size_t i) const { return incoming_values_[i]; }
  void set_incoming_value(size_t i, Value* v) { incoming_values_[i] = v; }
  BasicBlock* incoming_block(size_t i) const { return incoming_blocks_[i]; }
  void set_incoming_block(size_t i, BasicBlock* bb) {
    incoming_blocks_[i] = bb;
  }

  // Returns the incoming value for `pred`, or nullptr.
  Value* ValueForBlock(const BasicBlock* pred) const;

  void ReplaceIncomingUsesOfWith(Value* from, Value* to);

 private:
  // Phi incoming values are held outside the operand list because they pair
  // with predecessor blocks.
  std::vector<Value*> incoming_values_;
  std::vector<BasicBlock*> incoming_blocks_;
};

// Conditional or unconditional branch. Explicit control flow graph, no
// computed branches (Section 3.1 property 2).
class BranchInst : public Instruction {
 public:
  // Unconditional.
  BranchInst(const Type* void_type, BasicBlock* target)
      : Instruction(Opcode::kBr, void_type, {}, "") {
    targets_.push_back(target);
  }
  // Conditional.
  BranchInst(const Type* void_type, Value* cond, BasicBlock* if_true,
             BasicBlock* if_false)
      : Instruction(Opcode::kBr, void_type, {cond}, "") {
    targets_.push_back(if_true);
    targets_.push_back(if_false);
  }

  bool is_conditional() const { return num_operands() == 1; }
  Value* condition() const { return operand(0); }
  size_t num_targets() const { return targets_.size(); }
  BasicBlock* target(size_t i) const { return targets_[i]; }
  void set_target(size_t i, BasicBlock* bb) { targets_[i] = bb; }

 private:
  std::vector<BasicBlock*> targets_;
};

class SwitchInst : public Instruction {
 public:
  SwitchInst(const Type* void_type, Value* value, BasicBlock* default_target)
      : Instruction(Opcode::kSwitch, void_type, {value}, ""),
        default_target_(default_target) {}

  Value* condition() const { return operand(0); }
  BasicBlock* default_target() const { return default_target_; }
  void AddCase(uint64_t case_value, BasicBlock* target) {
    case_values_.push_back(case_value);
    case_targets_.push_back(target);
  }
  size_t num_cases() const { return case_values_.size(); }
  uint64_t case_value(size_t i) const { return case_values_[i]; }
  BasicBlock* case_target(size_t i) const { return case_targets_[i]; }

 private:
  BasicBlock* default_target_;
  std::vector<uint64_t> case_values_;
  std::vector<BasicBlock*> case_targets_;
};

class RetInst : public Instruction {
 public:
  // `value` may be nullptr for `ret void`.
  RetInst(const Type* void_type, Value* value)
      : Instruction(Opcode::kRet, void_type,
                    value ? std::vector<Value*>{value} : std::vector<Value*>{},
                    "") {}
  bool has_value() const { return num_operands() == 1; }
  Value* value() const { return operand(0); }
};

class UnreachableInst : public Instruction {
 public:
  explicit UnreachableInst(const Type* void_type)
      : Instruction(Opcode::kUnreachable, void_type, {}, "") {}
};

}  // namespace sva::vir

#endif  // SVA_SRC_VIR_INSTRUCTIONS_H_
