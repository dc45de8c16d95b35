// The threaded-code execution tier (ROADMAP open item 1).
//
// Each verified function is lowered once, lazily at first call, into a flat
// stream of pre-resolved handler records: SSA values get dense register
// slots instead of a per-frame std::map, constants (including global and
// function addresses) are materialized into slot initializers, branch
// targets become indices into the op stream, phis become per-edge parallel
// move lists, and call sites are pre-classified (intrinsic id / direct
// target / host binding / indirect). The stream is executed by
// computed-goto threaded dispatch (a portable switch loop elsewhere) with the
// bounds/load-store/indirect-call checks invoked through exactly the same
// MetaPoolRuntime entry points as the tree-walking interpreter.
//
// TCB story: the decoder consumes only bytecode that already passed the
// structural verifier — the same keying as the interpreter — and performs a
// purely local, per-function lowering. The verifier rejects every shape the
// decoder cannot lower faithfully (dynamic struct field indices, phis in the
// entry block, blocks without terminators, float operands in integer
// contexts), so every verified function runs here; a decode error fails the
// call and never moves it to another engine, and no check is ever weakened
// to make a function decodable. Arithmetic and trap semantics come from
// exec_semantics.h, shared with the interpreter, so the tiers cannot
// diverge; tests/tier_parity_test.cc asserts identical results, statuses,
// step counts, and CheckStats across both.
#ifndef SVA_SRC_SVM_THREADED_INTERP_H_
#define SVA_SRC_SVM_THREADED_INTERP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/support/status.h"
#include "src/svm/interp.h"
#include "src/vir/instructions.h"
#include "src/vir/intrinsics.h"

namespace sva::svm {

// One threaded-code operation. Fixed-size records keep the stream flat and
// the dispatch loop free of pointer chasing; variable-length payloads
// (call arguments, GEP terms, switch cases, phi moves) live in side tables
// referenced by index.
enum class OpK : uint8_t {
  // Integer binary ops (dst = a op b at width `bits`).
  kAdd, kSub, kMul, kUDiv, kSDiv, kURem, kSRem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,
  // Float binary ops (fdst = fa op fb).
  kFAdd, kFSub, kFMul, kFDiv,
  kICmp,     // aux = CmpPred, bits = operand width.
  kFCmp,     // aux = CmpPred.
  kSelectI,  // dst = regs[c]&1 ? regs[a] : regs[b].
  kSelectF,  // fregs: same shape.
  kMask,     // trunc/zext/bitcast/ptrtoint/inttoptr: dst = mask(a, bits).
  kSExt,     // aux = src bits, bits = dst bits.
  kSIToFP,   // aux = src bits.
  kFPToSI,   // bits = dst bits.
  kAlloca,   // imm = element size, a = count slot.
  kMalloc,   // imm = element size, a = count slot.
  kFree,     // a = pointer slot.
  kLoadI,    // aux = byte width, a = address slot.
  kLoadF32, kLoadF64,
  kStoreI,   // aux = byte width, a = address slot, b = value slot.
  kStoreF32, kStoreF64,
  kGepStatic,  // dst = regs[a] + imm.
  kGepDyn,     // + aux dynamic terms starting at gep_terms[b].
  kAtomicLIS,  // aux = byte width, a = address, b = delta.
  kCmpXchg,    // aux = byte width, a = address, b = expected, c = desired.
  kCall,       // ptr = CallSite.
  kBr,         // a = edge index.
  kBrCond,     // a = condition slot, b = true edge, c = false edge.
  kSwitch,     // a = condition slot, ptr = SwitchTable.
  kRetVoid, kRetI, kRetF,
  kUnreachable,
  kNop,  // sva.writebarrier (counts one step, does nothing).
  kCount,
};

struct Op {
  OpK kind;
  uint8_t bits = 64;   // Operating width in bits where applicable.
  uint16_t aux = 0;    // Predicate / byte width / source bits / term count.
  uint32_t dst = 0;    // Destination slot (int or float register file).
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint64_t imm = 0;    // Immediate: sizes, static GEP offset.
  const void* ptr = nullptr;  // CallSite* / SwitchTable*.
};

// A CFG edge: jump target plus the phi-elimination moves to perform when
// taking it. Moves are gather-then-scatter so mutually-referencing phi
// groups (swaps) behave as the simultaneous assignment SSA requires.
struct Edge {
  uint32_t target = 0;       // Op index of the target block's first op.
  uint32_t moves_start = 0;  // Into ThreadedCode::moves.
  uint16_t moves_count = 0;
  // Step-count parity with the interpreter, which charges one step per phi
  // instruction it retires at the head of the target block.
  uint16_t phi_steps = 0;
};

struct Move {
  uint32_t src = 0;
  uint32_t dst = 0;
  bool is_float = false;
};

// One dynamic GEP index: offset += sext(regs[slot], bits) * scale.
struct GepTerm {
  uint32_t slot = 0;
  uint8_t bits = 64;
  uint64_t scale = 0;
};

// A pre-classified call site.
struct CallSite {
  enum class Kind : uint8_t {
    kIntrinsic,  // Pre-resolved pchk.*/sva.* id.
    kDirect,     // Defined function: recurse through RunFunction.
    kHost,       // Declaration: resolve host binding by name at call time
                 // (bindings may change between runs, so no caching).
    kIndirect,   // Function pointer: full runtime resolution, as interp.
  };
  struct Arg {
    uint32_t slot = 0;
    bool is_float = false;
  };
  Kind kind = Kind::kDirect;
  const vir::Function* target = nullptr;  // Null for kIndirect.
  vir::Intrinsic intrinsic = vir::Intrinsic::kNone;
  uint32_t callee_slot = 0;  // kIndirect only.
  std::vector<Arg> args;
  bool returns_void = true;
  bool returns_float = false;
};

struct SwitchTable {
  uint8_t bits = 64;
  uint32_t default_edge = 0;
  // Pre-masked case values, in source order (first match wins, as interp).
  std::vector<std::pair<uint64_t, uint32_t>> cases;
};

// The decoded form of one function.
struct ThreadedCode {
  const vir::Function* fn = nullptr;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  std::vector<Move> moves;
  std::vector<GepTerm> gep_terms;
  std::vector<std::unique_ptr<CallSite>> call_sites;
  std::vector<std::unique_ptr<SwitchTable>> switch_tables;
  // Register files. Slot 0 upward; const_inits are applied at frame entry.
  uint32_t num_int_slots = 0;
  uint32_t num_float_slots = 0;
  std::vector<std::pair<uint32_t, uint64_t>> iconst_inits;
  std::vector<std::pair<uint32_t, double>> fconst_inits;
  // Argument binding, mirroring the interpreter's mixed int/float ABI.
  struct ArgBind {
    uint32_t slot = 0;
    bool is_float = false;
  };
  std::vector<ArgBind> arg_binds;
  size_t max_edge_moves = 0;  // Scratch sizing for gather/scatter.
};

// Owns the per-function code cache and the dispatch loop. One engine per
// Interpreter; all VM state (memory, pools, allocator, stack arena, step
// budget) stays in the Interpreter, which declares this class a friend.
class ThreadedEngine {
 public:
  explicit ThreadedEngine(Interpreter& interp);
  ~ThreadedEngine();

  // Decoded code for `fn`, decoding on first use, or the reason it cannot
  // be lowered (unreachable for verified functions).
  Result<const ThreadedCode*> CodeFor(const vir::Function& fn);

  // Executes decoded code. `depth` has already been bounds-checked by
  // RunFunction.
  ExecResult Execute(const ThreadedCode& code, std::span<const uint64_t> args,
                     std::span<const double> fargs, uint64_t depth);

 private:
  Interpreter& interp_;
  std::map<const vir::Function*, std::unique_ptr<ThreadedCode>> code_;
};

}  // namespace sva::svm

#endif  // SVA_SRC_SVM_THREADED_INTERP_H_
