// Functions, basic blocks, and the explicit control flow graph of SVA-Core.
#ifndef SVA_SRC_VIR_FUNCTION_H_
#define SVA_SRC_VIR_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/vir/instructions.h"
#include "src/vir/value.h"

namespace sva::vir {

class Module;

class BasicBlock {
 public:
  BasicBlock(std::string name, Function* parent)
      : name_(std::move(name)), parent_(parent) {}
  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  Function* parent() const { return parent_; }

  const std::vector<std::unique_ptr<Instruction>>& instructions() const {
    return instructions_;
  }
  bool empty() const { return instructions_.empty(); }
  Instruction* front() const { return instructions_.front().get(); }
  Instruction* back() const { return instructions_.back().get(); }

  // The terminator, or nullptr if the block is not yet terminated.
  Instruction* terminator() const {
    if (instructions_.empty() || !instructions_.back()->IsTerminator()) {
      return nullptr;
    }
    return instructions_.back().get();
  }

  // Appends an instruction (takes ownership) and returns the raw pointer.
  Instruction* Append(std::unique_ptr<Instruction> inst);

  // Inserts before position `index`; used by the safety-checking passes to
  // place run-time checks next to the operations they guard.
  Instruction* InsertAt(size_t index, std::unique_ptr<Instruction> inst);

  // Index of `inst` in this block; asserts if absent.
  size_t IndexOf(const Instruction* inst) const;

  // Replaces the instruction at `index` with `inst`, returning the old one
  // (used by stack-to-heap promotion). Callers must fix up uses first.
  std::unique_ptr<Instruction> ReplaceAt(size_t index,
                                         std::unique_ptr<Instruction> inst);

  // Unlinks `inst` from this block and returns it (used by the check
  // elimination pass to delete or move checks). Callers fix up uses.
  std::unique_ptr<Instruction> Remove(const Instruction* inst);

  // Successor blocks per the terminator.
  std::vector<BasicBlock*> Successors() const;

 private:
  std::string name_;
  Function* const parent_;
  std::vector<std::unique_ptr<Instruction>> instructions_;
};

class Function : public Value {
 public:
  Function(const PointerType* value_type, const FunctionType* fn_type,
           std::string name, Module* parent, bool is_declaration);

  const FunctionType* function_type() const { return fn_type_; }
  Module* parent() const { return parent_; }
  bool is_declaration() const { return is_declaration_; }
  void set_is_declaration(bool d) { is_declaration_ = d; }

  const std::vector<std::unique_ptr<Argument>>& args() const { return args_; }
  Argument* arg(size_t i) const { return args_[i].get(); }
  size_t num_args() const { return args_.size(); }

  const std::vector<std::unique_ptr<BasicBlock>>& blocks() const {
    return blocks_;
  }
  BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  BasicBlock* CreateBlock(std::string name);

  // All instructions in block order (convenience for analyses).
  std::vector<Instruction*> AllInstructions() const;

  // Replaces all uses of `from` with `to` across this function's instruction
  // operands and phi incoming values.
  void ReplaceAllUsesWith(Value* from, Value* to);

 private:
  const FunctionType* const fn_type_;
  Module* const parent_;
  bool is_declaration_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
};

}  // namespace sva::vir

#endif  // SVA_SRC_VIR_FUNCTION_H_
