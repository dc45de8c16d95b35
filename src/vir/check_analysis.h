// Local facts about run-time checks, shared by the bytecode verifier's rule
// R8 (src/verifier/coverage.h) and the safety compiler's check-elimination
// pass (src/safety/check_elimination.h). The pass only emits shapes these
// functions recognize, and R8 re-proves coverage with the same functions,
// so the pass itself stays outside the trusted computing base.
#ifndef SVA_SRC_VIR_CHECK_ANALYSIS_H_
#define SVA_SRC_VIR_CHECK_ANALYSIS_H_

#include <set>
#include <vector>

#include "src/vir/intrinsics.h"
#include "src/vir/module.h"
#include "src/vir/structural_verifier.h"

namespace sva::vir {

// Strips bitcasts: a bitcast changes neither the address nor the metapool
// (rule R2), so two operands that strip to one value name one pointer.
const Value* StripCasts(const Value* v);

// The intrinsic a call invokes directly, or kNone.
Intrinsic IntrinsicOf(const Instruction& inst);

// The run-time checks: they read metapool state and never change it.
bool IsCheckIntrinsic(Intrinsic which);

// True if executing `inst` may unregister or free an object: any call other
// than a check (pchk.drop.obj, kfree and every unknown callee included) and
// `free`.
bool MayReleaseObjects(const Instruction& inst);

// True if every index of `gep` is a constant provably inside the declared
// type: the leading index is 0 and every array index is below the array
// length (static array bounds checking, Section 7.1.3 optimization 3).
bool IsStaticallyInBounds(const GetElementPtrInst& gep);

// A do-while loop counted by a canonical index:
//
//   header:  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
//            ...
//            %i.next = add i64 %i, 1          (anywhere in the loop)
//   latch:   %c = icmp ult i64 %i.next, %n
//            br i1 %c, label %header, label %exit
//
// The header's only predecessors are `entry` (outside the loop) and the
// latch, the latch's branch is the loop's only exit, and %n is defined
// outside the loop. Each entry into the header therefore runs the body with
// %i = 0, 1, ..., umax(%n, 1) - 1 and no other value.
struct CountedLoop {
  BasicBlock* header = nullptr;
  BasicBlock* latch = nullptr;
  BasicBlock* entry = nullptr;
  const PhiInst* index = nullptr;
  Value* bound = nullptr;
  std::set<const BasicBlock*> body;  // Natural loop, header included.
  bool releases = false;  // Some body instruction may release an object.

  bool Contains(const BasicBlock* bb) const { return body.count(bb) != 0; }
  // Defined outside the loop (constants, globals and arguments included).
  bool IsInvariant(const Value* v) const;
  // `entry` ends in an unconditional branch to the header.
  bool HasDedicatedPreheader() const;
};

// False when `fn` cannot hold a counted loop (no block but the entry starts
// with a phi): a cheap test before building a dominator tree.
bool MayHaveCountedLoops(const Function& fn);

// Every counted loop of `fn` (reachable blocks only).
std::vector<CountedLoop> FindCountedLoops(const Function& fn,
                                          const DominatorTree& dt);

// True if `k` is umax(%n, 1) - 1 in the one form the range checks use:
//   %z = icmp eq i64 %n, 0
//   %m = select i1 %z, i64 1, i64 %n
//   %k = sub i64 %m, 1
bool IsLastIndexOf(const Value* k, const Value* n);

// Byte stride of a covered access `gep T* base, i64 %i` — SizeOf(T) — when
// base + k * stride cannot wrap past what the range check sees: a stride of
// one byte, or a constant bound whose last offset fits in 64 bits. Zero when
// neither holds.
uint64_t CoveredStride(const GetElementPtrInst& gep, const CountedLoop& loop);

// True if `a` executes before `b` on every path to `b`.
bool InstDominates(const DominatorTree& dt, const Instruction* a,
                   const Instruction* b);

// True if no instruction that may release an object runs on any path from
// `from` to `to`; `from` must dominate `to`.
bool NoReleaseBetween(const Instruction* from, const Instruction* to);

}  // namespace sva::vir

#endif  // SVA_SRC_VIR_CHECK_ANALYSIS_H_
