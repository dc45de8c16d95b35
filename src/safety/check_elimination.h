// Run-time check elimination, run by the safety compiler after check
// insertion (Section 7.1.3's check-removal optimizations). Three steps, in
// this order:
//
//   1. monotonic ranges (optimization 2): in a counted loop that releases
//      no object, the per-iteration bounds and load-store checks of every
//      `gep T* %base, i64 %i` over a loop-invariant base in a complete pool
//      are replaced by one range check on [base, base + (umax(n,1)-1)*s]
//      in the loop's preheader. A preheader is split off when the loop is
//      entered from a conditional branch, so a zero-trip guard
//      (len == 0 -> done) never runs the range check;
//   2. loop-invariant hoisting: a check whose operands are all defined
//      outside such a loop, in a block that runs on every iteration, moves
//      to the preheader;
//   3. dominated duplicates: a check is removed when an identical check (or,
//      for a load-store check, a splay bounds check on the same pointer)
//      dominates it, with nothing that may release an object in between
//      for the checks that depend on pool state.
//
// A check that would trap now traps before the loop instead of at the bad
// iteration. The pass is not trusted: rule R8 of the bytecode verifier
// (src/verifier/coverage.h) re-proves that every access is still checked,
// using the shapes in src/vir/check_analysis.h.
#ifndef SVA_SRC_SAFETY_CHECK_ELIMINATION_H_
#define SVA_SRC_SAFETY_CHECK_ELIMINATION_H_

#include <cstdint>

#include "src/vir/builder.h"
#include "src/vir/module.h"

namespace sva::safety {

struct CheckEliminationOptions {
  bool monotonic_ranges = true;
  bool hoist_invariant = true;
  bool dominated_duplicates = true;
};

// Static counts, kept apart from the inserted-check counts of SafetyReport.
struct CheckEliminationReport {
  // Per-iteration checks replaced by preheader range checks.
  uint64_t range_covered = 0;
  // Range checks added to preheaders (a splay check and its order guard
  // per covered base).
  uint64_t range_checks = 0;
  // Checks moved from a loop body to its preheader.
  uint64_t hoisted = 0;
  // Checks removed because an identical or stronger check dominates them.
  uint64_t duplicates = 0;
};

CheckEliminationReport EliminateChecks(vir::Module& module,
                                       const CheckEliminationOptions& options);

// Casts `v` to i8* at `b`'s insertion point (unless it already is one),
// annotating the cast with v's metapool: the operand form every check
// intrinsic takes. Shared with check insertion.
vir::Value* CastToI8Ptr(vir::Module& module, vir::IRBuilder& b, vir::Value* v);

}  // namespace sva::safety

#endif  // SVA_SRC_SAFETY_CHECK_ELIMINATION_H_
