// The bytecode type checker of Section 5 — the piece that keeps the complex
// safety-checking compiler OUT of the trusted computing base.
//
// The compiler encodes its pointer analysis as metapool qualifiers on every
// pointer value (int *M1 Q style). The checker re-validates the annotations
// with purely local typing rules:
//
//   (R1) every referenced metapool is declared;
//   (R2) pool-preserving operations (bitcast, getelementptr, phi, select)
//        produce a pointer in the same metapool as their pointer operands;
//   (R3) the points-to nesting is consistent: if loading a pointer from an
//        object in M3 yields a pointer in M2, every load/store of pointers
//        through M3 must use M2 (this is the M2/M3 edge of the paper);
//   (R4) calls agree: actual argument pools match the callee's declared
//        formal pools, and the call result pool matches the callee's return
//        pool;
//   (R5) run-time check operands are coherent: pchk.reg.obj/pchk.drop.obj/
//        sva.boundscheck/sva.lscheck receive pointers annotated with the
//        same metapool as the handle they pass;
//   (R6) type homogeneity claims are justified: accesses through a TH pool
//        use the declared element type or one of its member types;
//   (R7) information flow (the Section 9 extension): a pointer into a
//        `classified` metapool may not be stored into an object of an
//        unclassified metapool — higher-level security policy encoded
//        compactly as a type qualifier, checked with the same local rules;
//   (R8) the run-time checks are present (coverage.h): every unproven
//        getelementptr use is dominated by a bounds check on it, every
//        load/store through a complete non-TH pool by a load-store (or
//        splay bounds) check on its pointer with no object release in
//        between, and every indirect call by an indirect-call check — or
//        the access lies in a counted loop whose preheader range-checks
//        all of it. With R8, neither check insertion nor the
//        check-elimination pass is trusted.
//
// Like the paper's checker, R1-R7 need only the operands of each
// instruction; R8 looks no further than one function's dominator tree and
// the loops in it. The checker is small, fast, and independent of the
// analysis.
#ifndef SVA_SRC_VERIFIER_TYPECHECKER_H_
#define SVA_SRC_VERIFIER_TYPECHECKER_H_

#include <string>
#include <vector>

#include "src/support/status.h"
#include "src/vir/module.h"

namespace sva::verifier {

struct TypeCheckOptions {
  // Stop at the first error (default) or collect all of them.
  bool collect_all = false;
};

struct TypeCheckResult {
  bool ok = true;
  std::vector<std::string> errors;
};

// Runs the metapool type checker over the module. A module that was never
// processed by the safety compiler (no metapools) passes trivially.
TypeCheckResult TypeCheckModule(const vir::Module& module,
                                const TypeCheckOptions& options = {});

// Convenience wrapper returning a Status.
Status TypeCheckOrError(const vir::Module& module);

}  // namespace sva::verifier

#endif  // SVA_SRC_VERIFIER_TYPECHECKER_H_
