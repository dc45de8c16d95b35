// Implementation of the instruction/function/module core.
#include <algorithm>
#include <cassert>

#include "src/vir/function.h"
#include "src/vir/instructions.h"
#include "src/vir/module.h"

namespace sva::vir {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kUDiv: return "udiv";
    case Opcode::kSDiv: return "sdiv";
    case Opcode::kURem: return "urem";
    case Opcode::kSRem: return "srem";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kLShr: return "lshr";
    case Opcode::kAShr: return "ashr";
    case Opcode::kFAdd: return "fadd";
    case Opcode::kFSub: return "fsub";
    case Opcode::kFMul: return "fmul";
    case Opcode::kFDiv: return "fdiv";
    case Opcode::kICmp: return "icmp";
    case Opcode::kFCmp: return "fcmp";
    case Opcode::kSelect: return "select";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kZExt: return "zext";
    case Opcode::kSExt: return "sext";
    case Opcode::kBitcast: return "bitcast";
    case Opcode::kPtrToInt: return "ptrtoint";
    case Opcode::kIntToPtr: return "inttoptr";
    case Opcode::kSIToFP: return "sitofp";
    case Opcode::kFPToSI: return "fptosi";
    case Opcode::kAlloca: return "alloca";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kGetElementPtr: return "getelementptr";
    case Opcode::kMalloc: return "malloc";
    case Opcode::kFree: return "free";
    case Opcode::kAtomicLIS: return "atomiclis";
    case Opcode::kCmpXchg: return "cmpxchg";
    case Opcode::kWriteBarrier: return "writebarrier";
    case Opcode::kCall: return "call";
    case Opcode::kPhi: return "phi";
    case Opcode::kBr: return "br";
    case Opcode::kSwitch: return "switch";
    case Opcode::kRet: return "ret";
    case Opcode::kUnreachable: return "unreachable";
  }
  return "<bad-opcode>";
}

const char* CmpPredName(CmpPred pred) {
  switch (pred) {
    case CmpPred::kEq: return "eq";
    case CmpPred::kNe: return "ne";
    case CmpPred::kUGt: return "ugt";
    case CmpPred::kUGe: return "uge";
    case CmpPred::kULt: return "ult";
    case CmpPred::kULe: return "ule";
    case CmpPred::kSGt: return "sgt";
    case CmpPred::kSGe: return "sge";
    case CmpPred::kSLt: return "slt";
    case CmpPred::kSLe: return "sle";
  }
  return "<bad-pred>";
}

void Instruction::ReplaceUsesOfWith(Value* from, Value* to) {
  for (size_t i = 0; i < operands_.size(); ++i) {
    if (operands_[i] == from) {
      operands_[i] = to;
    }
  }
  if (auto* phi = dynamic_cast<PhiInst*>(this)) {
    phi->ReplaceIncomingUsesOfWith(from, to);
  }
}

Function* CallInst::called_function() const {
  return dynamic_cast<Function*>(callee());
}

Value* PhiInst::ValueForBlock(const BasicBlock* pred) const {
  for (size_t i = 0; i < incoming_blocks_.size(); ++i) {
    if (incoming_blocks_[i] == pred) {
      return incoming_values_[i];
    }
  }
  return nullptr;
}

void PhiInst::ReplaceIncomingUsesOfWith(Value* from, Value* to) {
  for (auto& v : incoming_values_) {
    if (v == from) {
      v = to;
    }
  }
}

Instruction* BasicBlock::Append(std::unique_ptr<Instruction> inst) {
  inst->set_parent(this);
  instructions_.push_back(std::move(inst));
  return instructions_.back().get();
}

Instruction* BasicBlock::InsertAt(size_t index,
                                  std::unique_ptr<Instruction> inst) {
  assert(index <= instructions_.size());
  inst->set_parent(this);
  auto it = instructions_.begin() + static_cast<ptrdiff_t>(index);
  return instructions_.insert(it, std::move(inst))->get();
}

std::unique_ptr<Instruction> BasicBlock::ReplaceAt(
    size_t index, std::unique_ptr<Instruction> inst) {
  assert(index < instructions_.size());
  inst->set_parent(this);
  std::unique_ptr<Instruction> old = std::move(instructions_[index]);
  instructions_[index] = std::move(inst);
  return old;
}

std::unique_ptr<Instruction> BasicBlock::Remove(const Instruction* inst) {
  auto it = instructions_.begin() + static_cast<ptrdiff_t>(IndexOf(inst));
  std::unique_ptr<Instruction> out = std::move(*it);
  instructions_.erase(it);
  out->set_parent(nullptr);
  return out;
}

size_t BasicBlock::IndexOf(const Instruction* inst) const {
  for (size_t i = 0; i < instructions_.size(); ++i) {
    if (instructions_[i].get() == inst) {
      return i;
    }
  }
  assert(false && "instruction not in block");
  return instructions_.size();
}

std::vector<BasicBlock*> BasicBlock::Successors() const {
  std::vector<BasicBlock*> succs;
  Instruction* term = terminator();
  if (term == nullptr) {
    return succs;
  }
  if (auto* br = dynamic_cast<BranchInst*>(term)) {
    for (size_t i = 0; i < br->num_targets(); ++i) {
      succs.push_back(br->target(i));
    }
  } else if (auto* sw = dynamic_cast<SwitchInst*>(term)) {
    succs.push_back(sw->default_target());
    for (size_t i = 0; i < sw->num_cases(); ++i) {
      succs.push_back(sw->case_target(i));
    }
  }
  return succs;
}

Function::Function(const PointerType* value_type, const FunctionType* fn_type,
                   std::string name, Module* parent, bool is_declaration)
    : Value(ValueKind::kFunction, value_type, std::move(name)),
      fn_type_(fn_type),
      parent_(parent),
      is_declaration_(is_declaration) {
  for (size_t i = 0; i < fn_type->params().size(); ++i) {
    args_.push_back(std::make_unique<Argument>(
        fn_type->params()[i], "arg" + std::to_string(i), this,
        static_cast<unsigned>(i)));
  }
}

BasicBlock* Function::CreateBlock(std::string name) {
  blocks_.push_back(std::make_unique<BasicBlock>(std::move(name), this));
  return blocks_.back().get();
}

std::vector<Instruction*> Function::AllInstructions() const {
  std::vector<Instruction*> out;
  for (const auto& bb : blocks_) {
    for (const auto& inst : bb->instructions()) {
      out.push_back(inst.get());
    }
  }
  return out;
}

void Function::ReplaceAllUsesWith(Value* from, Value* to) {
  for (const auto& bb : blocks_) {
    for (const auto& inst : bb->instructions()) {
      inst->ReplaceUsesOfWith(from, to);
    }
  }
}

Function* Module::CreateFunction(const std::string& name,
                                 const FunctionType* type, bool is_declaration,
                                 const std::vector<std::string>& arg_names) {
  assert(function_map_.find(name) == function_map_.end() &&
         "duplicate function");
  const PointerType* ptr = types_.PointerTo(type);
  functions_.push_back(
      std::make_unique<Function>(ptr, type, name, this, is_declaration));
  Function* fn = functions_.back().get();
  for (size_t i = 0; i < arg_names.size() && i < fn->num_args(); ++i) {
    fn->arg(i)->set_name(arg_names[i]);
  }
  function_map_[name] = fn;
  return fn;
}

Function* Module::GetFunction(const std::string& name) const {
  auto it = function_map_.find(name);
  return it == function_map_.end() ? nullptr : it->second;
}

Function* Module::GetOrDeclareFunction(const std::string& name,
                                       const FunctionType* type) {
  if (Function* fn = GetFunction(name)) {
    return fn;
  }
  return CreateFunction(name, type, /*is_declaration=*/true);
}

GlobalVariable* Module::CreateGlobal(const std::string& name,
                                     const Type* value_type, bool is_external) {
  assert(global_map_.find(name) == global_map_.end() && "duplicate global");
  const PointerType* ptr = types_.PointerTo(value_type);
  globals_.push_back(
      std::make_unique<GlobalVariable>(ptr, value_type, name, is_external));
  GlobalVariable* gv = globals_.back().get();
  global_map_[name] = gv;
  return gv;
}

GlobalVariable* Module::GetGlobal(const std::string& name) const {
  auto it = global_map_.find(name);
  return it == global_map_.end() ? nullptr : it->second;
}

ConstantInt* Module::GetInt(const IntType* type, uint64_t bits) {
  // Mask to the type's width so equal values intern equally.
  unsigned width = type->bits();
  if (width < 64) {
    bits &= (uint64_t{1} << width) - 1;
  }
  auto key = std::make_pair(static_cast<const Type*>(type), bits);
  auto it = int_constants_.find(key);
  if (it != int_constants_.end()) {
    return it->second;
  }
  auto c = std::make_unique<ConstantInt>(type, bits);
  ConstantInt* raw = c.get();
  constants_.push_back(std::move(c));
  int_constants_[key] = raw;
  return raw;
}

ConstantFloat* Module::GetFloat(const FloatType* type, double value) {
  auto key = std::make_pair(static_cast<const Type*>(type), value);
  auto it = float_constants_.find(key);
  if (it != float_constants_.end()) {
    return it->second;
  }
  auto c = std::make_unique<ConstantFloat>(type, value);
  ConstantFloat* raw = c.get();
  constants_.push_back(std::move(c));
  float_constants_[key] = raw;
  return raw;
}

ConstantNull* Module::GetNull(const PointerType* type) {
  auto it = null_constants_.find(type);
  if (it != null_constants_.end()) {
    return it->second;
  }
  auto c = std::make_unique<ConstantNull>(type);
  ConstantNull* raw = c.get();
  constants_.push_back(std::move(c));
  null_constants_[type] = raw;
  return raw;
}

ConstantUndef* Module::GetUndef(const Type* type) {
  auto it = undef_constants_.find(type);
  if (it != undef_constants_.end()) {
    return it->second;
  }
  auto c = std::make_unique<ConstantUndef>(type);
  ConstantUndef* raw = c.get();
  constants_.push_back(std::move(c));
  undef_constants_[type] = raw;
  return raw;
}

MetapoolDecl& Module::DeclareMetapool(const std::string& name) {
  MetapoolDecl& decl = metapools_[name];
  decl.name = name;
  return decl;
}

const MetapoolDecl* Module::FindMetapool(const std::string& name) const {
  auto it = metapools_.find(name);
  return it == metapools_.end() ? nullptr : &it->second;
}

const std::string& Module::MetapoolOf(const Value* v) const {
  static const std::string kEmpty;
  auto it = value_metapool_.find(v);
  return it == value_metapool_.end() ? kEmpty : it->second;
}

bool Module::HasSignatureAssertion(const Value* call) const {
  return std::find(signature_asserted_.begin(), signature_asserted_.end(),
                   call) != signature_asserted_.end();
}

}  // namespace sva::vir
