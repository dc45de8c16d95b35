// Rule R8 of the bytecode type checker: every access the safety compiler
// must guard is still guarded. R1-R7 prove the metapool annotations
// consistent; R8 proves the run-time checks present, so neither check
// insertion nor the check-elimination pass has to be trusted.
//
// In a module that declares metapools, R8 rejects a function unless:
//
//   (a) every use of a getelementptr over an annotated base that is not
//       statically in bounds is dominated by a bounds check on the same
//       base and derived pointer: a splay check (sva.boundscheck), or a
//       direct check whose end is `base + C` for a constant C that a
//       dominating pchk.reg.obj registered base with. Uses as a check
//       operand are exempt, and so is a covered getelementptr (below);
//   (b) every load or store through a complete, non-TH pool is dominated by
//       an sva.lscheck, or a splay bounds check, on the same pointer and
//       pool, with no instruction between them that may release an object
//       (a call other than a check, or free), or its pointer is covered;
//   (c) every indirect call is dominated by an sva.indirectcheck on the same
//       function pointer, unless the pointer comes from a complete TH pool.
//
// A covered getelementptr is `gep T* %base, i64 %i` in the body of a
// counted loop (src/vir/check_analysis.h) that releases nothing, where
// %base is loop-invariant in a complete pool P and the loop's preheader
// (its dedicated, unconditional entry block) holds, after which it releases
// nothing:
//
//   %last = getelementptr T* %base, i64 %k   ; %k = umax(%n, 1) - 1
//   sva.boundscheck(P, %base, %last)         ; base, last in one object
//   sva.boundscheck.direct(%base, %last, %last + 1)   ; base <= last
//
// %i ranges over [0, %k], so every base + i*SizeOf(T) lies in
// [base, last] and hence in the object the splay check found; the stride
// is one byte, or the bound a constant, so the multiplication cannot wrap.
// Incomplete pools are excluded: their reduced checks probe the derived
// pointer itself, which an endpoint check cannot stand in for.
#ifndef SVA_SRC_VERIFIER_COVERAGE_H_
#define SVA_SRC_VERIFIER_COVERAGE_H_

#include <functional>
#include <string>

#include "src/vir/module.h"

namespace sva::verifier {

// Runs R8 over one defined function, reporting each violation (messages
// start with "R8: ") through `error`.
void CheckCoverage(const vir::Module& module, const vir::Function& fn,
                   const std::function<void(std::string)>& error);

}  // namespace sva::verifier

#endif  // SVA_SRC_VERIFIER_COVERAGE_H_
