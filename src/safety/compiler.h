// The SVA safety-checking compiler (Sections 4.3-4.6).
//
// Pipeline over one bytecode module:
//   1. (optional) function cloning for analysis precision (Section 4.8)
//   2. unification points-to analysis
//   3. metapool inference: one metapool per points-to partition, with
//      kernel-pool-driven merging (one kernel pool => one metapool; ordinary
//      allocators merge all their partitions, per size class when the
//      kmalloc/kmem_cache relationship is exposed)
//   4. stack-to-heap promotion of escaping allocas
//   5. object registration: pchk.reg.obj/pchk.drop.obj at every allocation/
//      deallocation, globals registered in a synthesized @sva.init entry
//   6. run-time check insertion: bounds checks on unprovable GEPs (direct
//      bounds when statically known), load-store checks on complete non-TH
//      pools, indirect call checks against call-graph target sets
//   7. (optional) devirtualization of signature-asserted sites
//   8. metapool type annotations on every pointer value, for the bytecode
//      verifier (Section 5)
//   9. check elimination over the instrumented code (check_elimination.h):
//      monotonic loop ranges, loop-invariant hoisting, dominated duplicates
//
// The compiler is NOT in the trusted computing base: the type checker in
// src/verifier re-validates its output.
#ifndef SVA_SRC_SAFETY_COMPILER_H_
#define SVA_SRC_SAFETY_COMPILER_H_

#include <cstdint>
#include <string>

#include "src/analysis/config.h"
#include "src/analysis/transforms.h"
#include "src/safety/check_elimination.h"
#include "src/support/status.h"
#include "src/vir/module.h"

namespace sva::safety {

struct SafetyCompilerOptions {
  analysis::AnalysisConfig analysis = analysis::AnalysisConfig::LinuxLike();
  bool run_cloning = true;
  bool run_devirt = true;
  // Use sva.boundscheck.direct when object bounds are statically known
  // (the Figure 2 line-19 "check without lookup" optimization).
  bool use_direct_bounds = true;
  // Elide provably-safe constant-index GEP checks (static array bounds
  // checking, Section 7.1.3 optimization 3).
  bool elide_static_safe_bounds = true;
  // Skip load-store checks on TH pools (core SAFECode optimization). Turning
  // this off measures the cost the partitioning strategy saves.
  bool elide_th_loadstore = true;
  // Step 9; the verifier's rule R8 re-proves what it leaves.
  CheckEliminationOptions elimination;
};

// Static instrumentation metrics; the Table 9 rows are derived from these.
struct AccessMetrics {
  uint64_t total = 0;
  uint64_t to_incomplete = 0;
  uint64_t to_type_safe = 0;
};

struct SafetyReport {
  // Metapool inventory.
  uint64_t metapools = 0;
  uint64_t th_metapools = 0;
  uint64_t complete_metapools = 0;
  uint64_t merged_by_kernel_pools = 0;

  // Instrumentation counts.
  uint64_t reg_obj = 0;
  uint64_t drop_obj = 0;
  uint64_t global_registrations = 0;
  uint64_t stack_registrations = 0;
  uint64_t stack_promotions = 0;
  uint64_t bounds_checks = 0;
  uint64_t direct_bounds_checks = 0;
  uint64_t elided_bounds_checks = 0;
  uint64_t ls_checks = 0;
  uint64_t elided_th_ls_checks = 0;
  uint64_t reduced_ls_checks = 0;  // Skipped on incomplete pools (I2).
  uint64_t indirect_checks = 0;
  // What step 9 removed, hoisted and added. The counts above stay the
  // checks instrumentation inserted (the Table 9 / Figure 2 quantities).
  CheckEliminationReport eliminated;

  // Allocation-site coverage (Table 9, column 2).
  uint64_t allocation_sites = 0;
  uint64_t allocation_sites_registered = 0;

  // Static access metrics (Table 9, columns 3-4).
  AccessMetrics loads;
  AccessMetrics stores;
  AccessMetrics struct_indexing;
  AccessMetrics array_indexing;

  analysis::CloneReport clone_report;
  analysis::DevirtReport devirt_report;
};

// Runs the full pipeline, mutating `module` in place. On success the module
// carries metapool declarations, value annotations, and inserted checks,
// and (if any globals exist) a synthesized @sva.init registration function.
Result<SafetyReport> RunSafetyCompiler(vir::Module& module,
                                       const SafetyCompilerOptions& options = {});

// Name of the synthesized initialization function that registers global
// objects; the SVM runs it automatically at load time.
inline constexpr const char* kInitFunctionName = "sva.init";

}  // namespace sva::safety

#endif  // SVA_SRC_SAFETY_COMPILER_H_
