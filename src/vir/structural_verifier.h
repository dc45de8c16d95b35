// Structural well-formedness checks on SVA-Core modules: explicit CFG with
// terminated blocks and an entry block nothing branches to, SSA dominance of
// definitions over uses, operand type agreement (including the int / float /
// pointer class of every cast, compare, select and atomic), and
// phi/predecessor coherence. Every function that passes lowers onto the
// threaded execution tier. This is the instruction-set-level
// verification the SVM performs before the metapool type check of Section 5.
#ifndef SVA_SRC_VIR_STRUCTURAL_VERIFIER_H_
#define SVA_SRC_VIR_STRUCTURAL_VERIFIER_H_

#include <cstddef>
#include <map>
#include <vector>

#include "src/support/status.h"
#include "src/vir/module.h"

namespace sva::vir {

// Immediate-dominator tree of one function (Cooper-Harvey-Kennedy iterative
// algorithm). Exposed for reuse by the bounds-check hoisting ablation.
class DominatorTree {
 public:
  explicit DominatorTree(const Function& fn);

  // Immediate dominator, or nullptr for the entry block / unreachable blocks.
  const BasicBlock* ImmediateDominator(const BasicBlock* bb) const;
  // True if `a` dominates `b` (reflexive).
  bool Dominates(const BasicBlock* a, const BasicBlock* b) const;
  bool IsReachable(const BasicBlock* bb) const;

 private:
  std::map<const BasicBlock*, const BasicBlock*> idom_;
  std::map<const BasicBlock*, int> rpo_index_;
};

// Per-block limits a verified function stays within: the threaded tier
// stores a block's phi count and a GEP's dynamic index count in 16 bits.
inline constexpr size_t kMaxPhisPerBlock = 0xFFFF;
inline constexpr size_t kMaxDynamicGepIndices = 0xFFFF;

// Verifies one function; returns the first problem found.
Status VerifyFunction(const Module& module, const Function& fn);

// Verifies every defined function in the module.
Status VerifyModule(const Module& module);

// Reachable blocks in reverse post-order: every block after its dominators.
std::vector<const BasicBlock*> ReversePostOrder(const Function& fn);

// Predecessor map of a function's CFG (utility shared with analyses).
std::map<const BasicBlock*, std::vector<const BasicBlock*>> PredecessorMap(
    const Function& fn);

}  // namespace sva::vir

#endif  // SVA_SRC_VIR_STRUCTURAL_VERIFIER_H_
