// Pointer-analysis bug injector for the Section 5 experiment: the paper
// injected 20 bugs (5 instances of 4 kinds) into the pointer analysis
// results and showed the bytecode verifier catches all of them. The four
// kinds mirror the paper's: incorrect variable aliasing, incorrect
// inter-node edges, incorrect claims of type homogeneity, and insufficient
// merging of points-to graph nodes. A fifth kind, a dropped run-time check,
// models a bug in check insertion or elimination (caught by rule R8).
#ifndef SVA_SRC_VERIFIER_INJECTOR_H_
#define SVA_SRC_VERIFIER_INJECTOR_H_

#include <cstdint>

#include "src/support/status.h"
#include "src/vir/module.h"

namespace sva::verifier {

enum class BugKind {
  kWrongAlias,            // A value annotated with the wrong metapool.
  kWrongEdge,             // A points-to edge bent to the wrong partition.
  kFalseTypeHomogeneity,  // A non-TH pool claimed TH with a bogus type.
  kInsufficientMerging,   // A partition split that should have merged.
  kDroppedCheck,          // One bounds, load-store or indirect check deleted.
};

const char* BugKindName(BugKind kind);

// Mutates `module` (which must carry safety-compiler annotations) to plant
// one bug of the given kind. `seed` selects among candidate sites, so
// different seeds give different instances. Returns NotFound when the
// module has no suitable site for this kind.
Status InjectBug(vir::Module& module, BugKind kind, uint64_t seed);

}  // namespace sva::verifier

#endif  // SVA_SRC_VERIFIER_INJECTOR_H_
