// Shared arithmetic and trap semantics for the SVM's execution tiers.
//
// Both engines — the tree-walking interpreter (interp.cc) and the
// threaded-code tier (threaded_interp.cc) — compile against these inline
// helpers, so the two tiers cannot diverge on what an SVA-Core instruction
// computes or when it traps. The differential battery in
// tests/tier_parity_test.cc asserts this empirically; this header makes it
// true by construction.
//
// Trap rules (all surfaced as SafetyViolation, never as host UB):
//   - udiv/sdiv by zero, urem/srem by zero.
//   - sdiv/srem of MIN_INT(width) by -1: two's-complement overflow. On the
//     host this is undefined behaviour (SIGFPE on x86 for the 64-bit case),
//     so a verified guest could previously kill the SVM with
//     `sdiv i64 INT64_MIN, -1`. The guard is width-generic: `sdiv i8 -128,
//     -1` traps identically, keeping guest semantics uniform instead of
//     silently wrapping at narrow widths while trapping at 64 bits.
//   - Shift amounts >= the operand width produce 0 for shl/lshr and the
//     sign fill (0 or all-ones) for ashr — fully defined, never host UB.
//   - Allocation-size computations (alloca/malloc element count x element
//     size) that overflow uint64 trap instead of wrapping to a small
//     allocation that later indexing would "legitimately" overrun.
#ifndef SVA_SRC_SVM_EXEC_SEMANTICS_H_
#define SVA_SRC_SVM_EXEC_SEMANTICS_H_

#include <cstdint>
#include <string>

#include "src/support/status.h"
#include "src/vir/instructions.h"
#include "src/vir/type.h"

namespace sva::svm::sem {

inline uint64_t MaskToWidth(uint64_t v, unsigned bits) {
  if (bits >= 64) {
    return v;
  }
  return v & ((uint64_t{1} << bits) - 1);
}

inline int64_t SignExtend(uint64_t v, unsigned bits) {
  if (bits >= 64) {
    return static_cast<int64_t>(v);
  }
  uint64_t sign = uint64_t{1} << (bits - 1);
  v = MaskToWidth(v, bits);
  return static_cast<int64_t>(v ^ sign) - static_cast<int64_t>(sign);
}

inline unsigned BitWidthOf(const vir::Type* t) {
  if (t->IsInt()) {
    return static_cast<const vir::IntType*>(t)->bits();
  }
  return 64;  // Pointers.
}

// The most negative value representable at `bits` (e.g. -128 for i8).
inline int64_t MinSigned(unsigned bits) {
  if (bits >= 64) {
    return INT64_MIN;
  }
  return -(int64_t{1} << (bits - 1));
}

// How an integer binary op failed; kNone on success.
enum class ArithTrap : uint8_t {
  kNone = 0,
  kDivByZero,
  kRemByZero,
  kDivOverflow,  // MIN_INT(width) / -1 (or the srem twin).
};

inline Status ArithTrapStatus(ArithTrap trap) {
  switch (trap) {
    case ArithTrap::kDivByZero:
      return SafetyViolation("integer division by zero");
    case ArithTrap::kRemByZero:
      return SafetyViolation("integer remainder by zero");
    case ArithTrap::kDivOverflow:
      return SafetyViolation("integer overflow in division");
    case ArithTrap::kNone:
      break;
  }
  return OkStatus();
}

// Evaluates one SVA-Core integer binary op on operands already masked to
// `bits`. Writes the (unmasked) result to *out; the caller masks. Returns
// the trap kind (kNone on success).
//
// `op` must be one of kAdd..kAShr; anything else is a caller bug.
inline ArithTrap EvalIntBinary(vir::Opcode op, uint64_t l, uint64_t r,
                               unsigned bits, uint64_t* out) {
  using vir::Opcode;
  switch (op) {
    case Opcode::kAdd:
      *out = l + r;
      return ArithTrap::kNone;
    case Opcode::kSub:
      *out = l - r;
      return ArithTrap::kNone;
    case Opcode::kMul:
      *out = l * r;
      return ArithTrap::kNone;
    case Opcode::kUDiv:
      if (r == 0) {
        return ArithTrap::kDivByZero;
      }
      *out = l / r;
      return ArithTrap::kNone;
    case Opcode::kSDiv: {
      if (r == 0) {
        return ArithTrap::kDivByZero;
      }
      int64_t ls = SignExtend(l, bits);
      int64_t rs = SignExtend(r, bits);
      if (ls == MinSigned(bits) && rs == -1) {
        return ArithTrap::kDivOverflow;
      }
      *out = static_cast<uint64_t>(ls / rs);
      return ArithTrap::kNone;
    }
    case Opcode::kURem:
      if (r == 0) {
        return ArithTrap::kRemByZero;
      }
      *out = l % r;
      return ArithTrap::kNone;
    case Opcode::kSRem: {
      if (r == 0) {
        return ArithTrap::kRemByZero;
      }
      int64_t ls = SignExtend(l, bits);
      int64_t rs = SignExtend(r, bits);
      if (ls == MinSigned(bits) && rs == -1) {
        // Mathematically the remainder is 0, but the host idiv raises
        // SIGFPE computing it; trap like the division twin so both tiers
        // (and any future native tier) agree without relying on host
        // quirks.
        return ArithTrap::kDivOverflow;
      }
      *out = static_cast<uint64_t>(ls % rs);
      return ArithTrap::kNone;
    }
    case Opcode::kAnd:
      *out = l & r;
      return ArithTrap::kNone;
    case Opcode::kOr:
      *out = l | r;
      return ArithTrap::kNone;
    case Opcode::kXor:
      *out = l ^ r;
      return ArithTrap::kNone;
    case Opcode::kShl:
      *out = r >= bits ? 0 : l << r;
      return ArithTrap::kNone;
    case Opcode::kLShr:
      *out = r >= bits ? 0 : l >> r;
      return ArithTrap::kNone;
    case Opcode::kAShr:
      *out = static_cast<uint64_t>(SignExtend(l, bits) >>
                                   (r >= bits ? bits - 1 : r));
      return ArithTrap::kNone;
    default:
      *out = 0;
      return ArithTrap::kNone;
  }
}

inline double EvalFloatBinary(vir::Opcode op, double l, double r) {
  using vir::Opcode;
  switch (op) {
    case Opcode::kFAdd: return l + r;
    case Opcode::kFSub: return l - r;
    case Opcode::kFMul: return l * r;
    case Opcode::kFDiv: return l / r;  // IEEE: inf/nan, never traps.
    default: return 0;
  }
}

// icmp on operands NOT yet masked; masks/sign-extends internally so both
// tiers agree on sub-64-bit comparisons.
inline bool EvalICmp(vir::CmpPred pred, uint64_t lraw, uint64_t rraw,
                     unsigned bits) {
  using vir::CmpPred;
  uint64_t l = MaskToWidth(lraw, bits);
  uint64_t r = MaskToWidth(rraw, bits);
  switch (pred) {
    case CmpPred::kEq: return l == r;
    case CmpPred::kNe: return l != r;
    case CmpPred::kUGt: return l > r;
    case CmpPred::kUGe: return l >= r;
    case CmpPred::kULt: return l < r;
    case CmpPred::kULe: return l <= r;
    case CmpPred::kSGt: return SignExtend(l, bits) > SignExtend(r, bits);
    case CmpPred::kSGe: return SignExtend(l, bits) >= SignExtend(r, bits);
    case CmpPred::kSLt: return SignExtend(l, bits) < SignExtend(r, bits);
    case CmpPred::kSLe: return SignExtend(l, bits) <= SignExtend(r, bits);
  }
  return false;
}

inline bool EvalFCmp(vir::CmpPred pred, double l, double r) {
  using vir::CmpPred;
  switch (pred) {
    case CmpPred::kEq: return l == r;
    case CmpPred::kNe: return l != r;
    case CmpPred::kUGt:
    case CmpPred::kSGt: return l > r;
    case CmpPred::kUGe:
    case CmpPred::kSGe: return l >= r;
    case CmpPred::kULt:
    case CmpPred::kSLt: return l < r;
    case CmpPred::kULe:
    case CmpPred::kSLe: return l <= r;
  }
  return false;
}

// elem_size * count for alloca/malloc, refusing uint64 wraparound (a guest
// could otherwise turn `alloca i64, 0x2000000000000000` into a tiny
// allocation whose later indexing stays "in bounds" of the wrapped size).
inline bool ScaledAllocSize(uint64_t elem_size, uint64_t count,
                            uint64_t* out) {
  if (count != 0 && elem_size > UINT64_MAX / count) {
    return false;
  }
  *out = elem_size * count;
  return true;
}

inline Status AllocSizeOverflow(const char* what) {
  return SafetyViolation(
      std::string("integer overflow in ") + what + " size");
}

// Intrinsics and host bindings return one integer word, so a float-typed
// call that resolves to one has no result to give; both tiers fail it with
// this status before the target runs.
inline Status FloatCallToIntegerTarget(const std::string& target) {
  return Unimplemented("float-typed call to @" + target +
                       ", which returns an integer (intrinsic or host "
                       "binding)");
}

// Guest calls recurse through the host stack in both tiers, so the guest
// depth bound is also a host frame bound. 256 is plenty for the corpus and
// keeps the runaway-recursion path well inside the default host stack even
// under ASan instrumentation.
inline constexpr uint64_t kMaxCallDepth = 256;

}  // namespace sva::svm::sem

#endif  // SVA_SRC_SVM_EXEC_SEMANTICS_H_
