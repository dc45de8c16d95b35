// Differential battery for the SVM's execution tiers: every program in
// here runs on BOTH the tree-walking interpreter and the threaded-code
// tier, and the two executions must agree on everything observable —
// return value, status (including the exact trap message), step count, and
// the full CheckStats stream the run-time checks produced. Programs are
// generated from a seeded LCG (arithmetic chains and phi loops over every
// integer width) plus handwritten edge cases (MIN/-1 division, shifts by
// >= width, sign-extension round trips), the kernel corpus and the exploit
// scenarios. Every verified function runs on the threaded tier: under
// kThreaded none of them may reach the tree-walker.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/exploits/exploits.h"
#include "src/runtime/metapool_runtime.h"
#include "src/safety/compiler.h"
#include "src/support/strings.h"
#include "src/svm/svm.h"
#include "src/trace/metrics.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace sva::svm {
namespace {

// Everything observable about one execution.
struct Observed {
  std::string status;
  uint64_t value = 0;
  uint64_t steps = 0;
  runtime::CheckStats checks;
};

// Runs `entry(arg)` in a fresh VM on the given tier, through the full
// pipeline (safety compiler -> verifiers -> SVM) so the program carries
// instrumented checks like real kernel bytecode.
Observed RunOnTier(const std::string& text, const std::string& entry,
                   const std::vector<uint64_t>& args, ExecTier tier) {
  Observed obs;
  auto parsed = vir::ParseModule(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  if (!parsed.ok()) {
    return obs;
  }
  auto module = std::move(*parsed);
  safety::SafetyCompilerOptions copts;
  auto report = safety::RunSafetyCompiler(*module, copts);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  Status verified = vir::VerifyModule(*module);
  EXPECT_TRUE(verified.ok()) << verified.ToString() << "\n" << text;
  Status typed = verifier::TypeCheckOrError(*module);
  EXPECT_TRUE(typed.ok()) << typed.ToString();
  SvmOptions options;
  options.interp.tier = tier;
  SecureVirtualMachine vm(options);
  auto loaded = vm.LoadModule(std::move(module));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) {
    return obs;
  }
  ExecResult r = (*loaded)->Run(entry, args);
  obs.status = r.status.ToString();
  obs.value = r.status.ok() ? r.value : 0;
  obs.steps = r.steps;
  obs.checks = (*loaded)->pools().stats();
  return obs;
}

// Function activations the tree-walker has run in this process so far.
uint64_t InterpFns() { return trace::TierCounters::Get().interp_fns.load(); }

// Asserts bit-identical observations across the two tiers for one program,
// and that the threaded run never reached the tree-walker.
void ExpectParity(const std::string& text, const std::string& entry,
                  const std::vector<uint64_t>& args,
                  const std::string& what) {
  Observed interp = RunOnTier(text, entry, args, ExecTier::kInterp);
  const uint64_t interp_fns = InterpFns();
  Observed threaded = RunOnTier(text, entry, args, ExecTier::kThreaded);
  EXPECT_EQ(InterpFns(), interp_fns) << what;
  EXPECT_EQ(interp.status, threaded.status) << what;
  EXPECT_EQ(interp.value, threaded.value) << what;
  EXPECT_EQ(interp.steps, threaded.steps) << what;
  EXPECT_EQ(interp.checks.bounds_performed, threaded.checks.bounds_performed)
      << what;
  EXPECT_EQ(interp.checks.bounds_failed, threaded.checks.bounds_failed)
      << what;
  EXPECT_EQ(interp.checks.loadstore_performed,
            threaded.checks.loadstore_performed)
      << what;
  EXPECT_EQ(interp.checks.loadstore_failed, threaded.checks.loadstore_failed)
      << what;
  EXPECT_EQ(interp.checks.indirect_performed,
            threaded.checks.indirect_performed)
      << what;
  EXPECT_EQ(interp.checks.indirect_failed, threaded.checks.indirect_failed)
      << what;
  EXPECT_EQ(interp.checks.frees_checked, threaded.checks.frees_checked)
      << what;
  EXPECT_EQ(interp.checks.frees_failed, threaded.checks.frees_failed) << what;
  EXPECT_EQ(interp.checks.registrations, threaded.checks.registrations)
      << what;
  EXPECT_EQ(interp.checks.drops, threaded.checks.drops) << what;
}

// --- Generated arithmetic chains ---------------------------------------------

// Deterministic LCG so failures reproduce from the seed alone.
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed * 2862933555777941757ull + 1) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
};

const char* kIntOps[] = {"add",  "sub",  "mul",  "udiv", "sdiv", "urem",
                         "srem", "and",  "or",   "xor",  "shl",  "lshr",
                         "ashr"};
const unsigned kWidths[] = {8, 16, 32, 64};

// Constants biased toward the values where tiers could plausibly diverge:
// zero (division traps), all-ones (-1), the sign bit (MIN), width-sized
// shift amounts, and small numbers.
uint64_t EdgeConstant(Lcg& rng, unsigned bits) {
  uint64_t mask = bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  switch (rng.Next() % 6) {
    case 0: return 0;
    case 1: return mask;                        // -1 at this width.
    case 2: return uint64_t{1} << (bits - 1);   // MIN_INT at this width.
    case 3: return rng.Next() % (2 * bits);     // Shift-sized.
    case 4: return rng.Next() & mask;
    default: return rng.Next() % 7;
  }
}

// A straight-line chain: trunc the argument to the width, apply `ops`
// random binary ops against edge-biased constants, widen back, return.
std::string GenChainProgram(uint64_t seed, unsigned* width_out) {
  Lcg rng(seed);
  unsigned bits = kWidths[rng.Next() % 4];
  *width_out = bits;
  std::string w = "i" + std::to_string(bits);
  std::string text = "module \"gen_chain\"\n";
  text += "define i64 @f(i64 %x) {\nentry:\n";
  std::string cur;
  if (bits < 64) {
    text += "  %t0 = trunc i64 %x to " + w + "\n";
    cur = "%t0";
  } else {
    cur = "%x";
  }
  int ops = 8;
  for (int i = 0; i < ops; ++i) {
    const char* op = kIntOps[rng.Next() % 13];
    uint64_t c = EdgeConstant(rng, bits);
    std::string next = "%v" + std::to_string(i);
    text += "  " + next + " = " + op + " " + w + " " + cur + ", " +
            std::to_string(c) + "\n";
    cur = next;
  }
  if (bits < 64) {
    text += "  %r = zext " + w + " %cur to i64\n";
    // Patch the placeholder: the zext source is the last chain value.
    size_t pos = text.rfind("%cur");
    text.replace(pos, 4, cur);
    cur = "%r";
  }
  text += "  ret i64 " + cur + "\n}\n";
  return text;
}

// A counted loop with two phis (index + accumulator) whose body applies a
// random op per iteration — covers phi-edge moves, branch linking, and
// trap-inside-loop on both tiers.
std::string GenLoopProgram(uint64_t seed) {
  Lcg rng(seed);
  unsigned bits = kWidths[rng.Next() % 4];
  std::string w = "i" + std::to_string(bits);
  const char* op = kIntOps[rng.Next() % 13];
  uint64_t c = EdgeConstant(rng, bits);
  uint64_t iters = 3 + rng.Next() % 14;
  std::string text = "module \"gen_loop\"\n";
  text += "define i64 @f(i64 %x) {\nentry:\n";
  if (bits < 64) {
    text += "  %seed = trunc i64 %x to " + w + "\n";
  } else {
    text += "  %seed = add i64 %x, 0\n";
  }
  text += "  br label %loop\n";
  text += "loop:\n";
  text += "  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]\n";
  text += "  %acc = phi " + w + " [ %seed, %entry ], [ %acc2, %loop ]\n";
  text += "  %acc2 = " + std::string(op) + " " + w + " %acc, " +
          std::to_string(c) + "\n";
  text += "  %i2 = add i64 %i, 1\n";
  text += "  %done = icmp uge i64 %i2, " + std::to_string(iters) + "\n";
  text += "  br i1 %done, label %exit, label %loop\n";
  text += "exit:\n";
  if (bits < 64) {
    text += "  %r = zext " + w + " %acc2 to i64\n";
  } else {
    text += "  %r = add i64 %acc2, 0\n";
  }
  text += "  ret i64 %r\n}\n";
  return text;
}

TEST(TierParity, GeneratedArithmeticChains) {
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    unsigned bits = 0;
    std::string text = GenChainProgram(seed, &bits);
    Lcg arg_rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (int a = 0; a < 3; ++a) {
      uint64_t arg = EdgeConstant(arg_rng, bits);
      ExpectParity(text, "f", {arg},
                   StrCat("chain seed ", seed, " arg ", arg, "\n", text));
    }
  }
}

TEST(TierParity, GeneratedPhiLoops) {
  for (uint64_t seed = 100; seed <= 140; ++seed) {
    std::string text = GenLoopProgram(seed);
    Lcg arg_rng(seed);
    uint64_t arg = arg_rng.Next();
    ExpectParity(text, "f", {arg},
                 StrCat("loop seed ", seed, " arg ", arg, "\n", text));
  }
}

// --- Handwritten arithmetic edges --------------------------------------------

std::string BinProgram(const std::string& op, unsigned bits) {
  std::string w = "i" + std::to_string(bits);
  std::string text = "module \"edge\"\n";
  text += "define i64 @f(i64 %a, i64 %b) {\nentry:\n";
  if (bits < 64) {
    text += "  %at = trunc i64 %a to " + w + "\n";
    text += "  %bt = trunc i64 %b to " + w + "\n";
    text += "  %r = " + op + " " + w + " %at, %bt\n";
    text += "  %rw = zext " + w + " %r to i64\n";
    text += "  ret i64 %rw\n}\n";
  } else {
    text += "  %r = " + op + " i64 %a, %b\n";
    text += "  ret i64 %r\n}\n";
  }
  return text;
}

TEST(TierParity, DivisionOverflowTrapsOnBothTiers) {
  // The headline bug: MIN/-1 must be a SafetyViolation (never host UB), at
  // every width, for both sdiv and srem.
  for (const char* op : {"sdiv", "srem"}) {
    for (unsigned bits : kWidths) {
      uint64_t min_int = uint64_t{1} << (bits - 1);
      uint64_t minus1 = bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
      std::string text = BinProgram(op, bits);
      Observed r =
          RunOnTier(text, "f", {min_int, minus1}, ExecTier::kThreaded);
      EXPECT_NE(r.status.find("integer overflow in division"),
                std::string::npos)
          << op << " i" << bits << ": " << r.status;
      ExpectParity(text, "f", {min_int, minus1},
                   StrCat(op, " MIN/-1 at i", bits));
      // Near-misses must NOT trap: MIN/-2, (MIN+1)/-1.
      ExpectParity(text, "f", {min_int, minus1 - 1},
                   StrCat(op, " MIN/-2 at i", bits));
      ExpectParity(text, "f", {min_int + 1, minus1},
                   StrCat(op, " (MIN+1)/-1 at i", bits));
    }
  }
}

TEST(TierParity, DivisionByZeroTrapsOnBothTiers) {
  for (const char* op : {"udiv", "sdiv", "urem", "srem"}) {
    for (unsigned bits : {8u, 64u}) {
      std::string text = BinProgram(op, bits);
      Observed r = RunOnTier(text, "f", {42, 0}, ExecTier::kThreaded);
      EXPECT_NE(r.status.find("SAFETY_VIOLATION"), std::string::npos)
          << op << " i" << bits << ": " << r.status;
      ExpectParity(text, "f", {42, 0}, StrCat(op, " by zero at i", bits));
    }
  }
}

TEST(TierParity, ShiftByWidthAndBeyond) {
  for (const char* op : {"shl", "lshr", "ashr"}) {
    for (unsigned bits : kWidths) {
      std::string text = BinProgram(op, bits);
      for (uint64_t amount : {uint64_t{bits - 1}, uint64_t{bits},
                              uint64_t{bits + 1}, uint64_t{200}}) {
        // A negative-looking value exercises the ashr sign fill.
        uint64_t sign_bit = uint64_t{1} << (bits - 1);
        ExpectParity(text, "f", {sign_bit | 5, amount},
                     StrCat(op, " i", bits, " by ", amount));
      }
    }
  }
}

TEST(TierParity, AShrSignFillSemantics) {
  // ashr of a negative value by >= width must yield all-ones at the
  // operating width (the sign fill), not zero, on both tiers.
  std::string text = BinProgram("ashr", 8);
  Observed r = RunOnTier(text, "f", {0x80, 8}, ExecTier::kThreaded);
  EXPECT_EQ(r.status, "OK");
  EXPECT_EQ(r.value, 0xFFu);
  ExpectParity(text, "f", {0x80, 8}, "ashr i8 sign fill");
  Observed pos = RunOnTier(text, "f", {0x7F, 9}, ExecTier::kThreaded);
  EXPECT_EQ(pos.value, 0u);  // Positive value: zero fill.
}

TEST(TierParity, SignExtensionRoundTrips) {
  // trunc/sext/zext chains across widths: sext of a sign-set narrow value
  // must produce the wide two's-complement pattern on both tiers.
  const char* text = R"(
module "roundtrip"
define i64 @f(i64 %x) {
entry:
  %a = trunc i64 %x to i8
  %b = sext i8 %a to i32
  %c = trunc i32 %b to i16
  %d = sext i16 %c to i64
  %e = zext i16 %c to i64
  %r = xor i64 %d, %e
  ret i64 %r
}
)";
  Observed r = RunOnTier(text, "f", {0x80}, ExecTier::kThreaded);
  EXPECT_EQ(r.status, "OK");
  // d = 0xFFFF...FF80, e = 0x0000FF80; xor = 0xFFFFFFFFFFFF0000.
  EXPECT_EQ(r.value, 0xFFFFFFFFFFFF0000ull);
  for (uint64_t arg : {uint64_t{0x80}, uint64_t{0x7F}, uint64_t{0xFFFF},
                       uint64_t{0x8000}, ~uint64_t{0}}) {
    ExpectParity(text, "f", {arg}, StrCat("sext round trip arg ", arg));
  }
}

TEST(TierParity, SDivSRemNonTrappingValues) {
  // Signed division semantics away from the traps: C++ truncation toward
  // zero at every width.
  for (const char* op : {"sdiv", "srem"}) {
    for (unsigned bits : kWidths) {
      std::string text = BinProgram(op, bits);
      uint64_t mask = bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
      ExpectParity(text, "f", {mask - 6, 3},
                   StrCat(op, " i", bits, " -7/3"));     // -7 / 3 = -2 r -1.
      ExpectParity(text, "f", {7, mask - 2},
                   StrCat(op, " i", bits, " 7/-3"));     // 7 / -3 = -2 r 1.
      ExpectParity(text, "f", {mask - 6, mask - 2},
                   StrCat(op, " i", bits, " -7/-3"));    // -7 / -3 = 2 r -1.
    }
  }
}

// --- Memory, calls, and the exploit suite ------------------------------------

TEST(TierParity, HeapCopyLoopInBoundsAndOverrun) {
  const char* text = R"(
module "copy"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @f(i64 %len) {
entry:
  %src = call i8* @kmalloc(i64 64)
  %dst = call i8* @kmalloc(i64 32)
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %sp = getelementptr i8* %src, i64 %i
  %b = load i8, i8* %sp
  %dp = getelementptr i8* %dst, i64 %i
  store i8 %b, i8* %dp
  %i2 = add i64 %i, 1
  %done = icmp uge i64 %i2, %len
  br i1 %done, label %exit, label %loop
exit:
  call void @kfree(i8* %dst)
  call void @kfree(i8* %src)
  ret i64 %i2
}
)";
  ExpectParity(text, "f", {32}, "copy in bounds");
  ExpectParity(text, "f", {33}, "copy one past the end");
  ExpectParity(text, "f", {4096}, "copy far overrun");
}

TEST(TierParity, NestedAndRecursiveCalls) {
  const char* text = R"(
module "calls"
define i64 @leaf(i64 %n) {
entry:
  %r = mul i64 %n, 3
  ret i64 %r
}

define i64 @fib(i64 %n) {
entry:
  %base = icmp ule i64 %n, 1
  br i1 %base, label %done, label %rec
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %a = call i64 @fib(i64 %n1)
  %b = call i64 @fib(i64 %n2)
  %s = add i64 %a, %b
  ret i64 %s
done:
  ret i64 %n
}

define i64 @f(i64 %n) {
entry:
  %x = call i64 @fib(i64 %n)
  %y = call i64 @leaf(i64 %x)
  ret i64 %y
}
)";
  ExpectParity(text, "f", {10}, "fib(10) through both tiers");
  // Runaway recursion: both tiers must hit the same depth limit.
  const char* deep = R"(
module "deep"
define i64 @f(i64 %n) {
entry:
  %n2 = add i64 %n, 1
  %r = call i64 @f(i64 %n2)
  ret i64 %r
}
)";
  Observed r = RunOnTier(deep, "f", {0}, ExecTier::kThreaded);
  EXPECT_NE(r.status.find("depth"), std::string::npos) << r.status;
  ExpectParity(deep, "f", {0}, "runaway recursion");
}

TEST(TierParity, SwitchDispatch) {
  const char* text = R"(
module "sw"
define i64 @f(i64 %x) {
entry:
  switch i64 %x, label %other, [ 0, label %a ], [ 1, label %b ], [ 7, label %c ]
a:
  ret i64 100
b:
  ret i64 200
c:
  ret i64 300
other:
  %r = add i64 %x, 1000
  ret i64 %r
}
)";
  for (uint64_t arg : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8},
                       ~uint64_t{0}}) {
    ExpectParity(text, "f", {arg}, StrCat("switch arg ", arg));
  }
}

TEST(TierParity, AllExploitScenariosAgree) {
  // The six exploit scenarios: detection, statuses, and check streams must
  // be identical per tier — both the benign and the malicious input.
  for (const exploits::ExploitScenario& s : exploits::AllScenarios()) {
    SvmOptions interp_options;
    interp_options.interp.tier = ExecTier::kInterp;
    SvmOptions threaded_options;
    threaded_options.interp.tier = ExecTier::kThreaded;
    auto a = exploits::RunScenario(s, interp_options);
    const uint64_t interp_fns = InterpFns();
    auto b = exploits::RunScenario(s, threaded_options);
    EXPECT_EQ(InterpFns(), interp_fns) << s.id;
    ASSERT_TRUE(a.ok()) << s.id << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << s.id << ": " << b.status().ToString();
    EXPECT_EQ(a->benign_status.ToString(), b->benign_status.ToString())
        << s.id;
    EXPECT_EQ(a->exploit_status.ToString(), b->exploit_status.ToString())
        << s.id;
    EXPECT_EQ(a->caught, b->caught) << s.id;
    EXPECT_EQ(a->violation, b->violation) << s.id;
  }
}

TEST(TierParity, FloatResultThroughFunctionPointer) {
  // An indirect call whose callee returns a float: the threaded tier
  // resolves the target at run time and writes the float register file.
  const char* text = R"(
module "fptr_float"
global @handler : f64 (i64)*

define f64 @half(i64 %x) {
entry:
  %f = sitofp i64 %x to f64
  %h = fdiv f64 %f, 2.0
  ret f64 %h
}

define i64 @f(i64 %x) {
entry:
  store f64 (i64)* @half, f64 (i64)** @handler
  %fp = load f64 (i64)*, f64 (i64)** @handler
  %r = call f64 %fp(i64 %x)
  %q = fmul f64 %r, 4.0
  %i = fptosi f64 %q to i64
  ret i64 %i
}
)";
  Observed r = RunOnTier(text, "f", {7}, ExecTier::kThreaded);
  EXPECT_EQ(r.status, "OK");
  EXPECT_EQ(r.value, 14u);
  ExpectParity(text, "f", {7}, "float result through a function pointer");
}

TEST(TierParity, FloatTypedHostAndIntrinsicCallsFailAlike) {
  // Intrinsics and host bindings return one integer word; a float-typed
  // call to one is the same error on both tiers, direct or indirect.
  const char* text = R"(
module "float_host"
declare f64 @host_float(i64)
declare f64 @sva.pseudo.alloc(i64, i64)
global @handler : f64 (i64)*

define i64 @host(i64 %x) {
entry:
  %r = call f64 @host_float(i64 %x)
  %i = fptosi f64 %r to i64
  ret i64 %i
}

define i64 @intrinsic(i64 %x) {
entry:
  %r = call f64 @sva.pseudo.alloc(i64 %x, i64 %x)
  %i = fptosi f64 %r to i64
  ret i64 %i
}

define i64 @indirect(i64 %x) {
entry:
  store f64 (i64)* @host_float, f64 (i64)** @handler
  %fp = load f64 (i64)*, f64 (i64)** @handler
  %r = call f64 %fp(i64 %x)
  %i = fptosi f64 %r to i64
  ret i64 %i
}
)";
  for (const char* entry : {"host", "intrinsic", "indirect"}) {
    Observed r = RunOnTier(text, entry, {1}, ExecTier::kThreaded);
    EXPECT_NE(r.status.find("float-typed call to @"), std::string::npos)
        << entry << ": " << r.status;
    ExpectParity(text, entry, {1}, StrCat("float-typed call, ", entry));
  }
}

TEST(TierParity, KernelCorpusEntryPointsAgree) {
  // Every defined corpus function, called with zero arguments in module
  // order on one VM per tier: same results, statuses and steps, and the
  // threaded VM never reaches the tree-walker.
  auto run_corpus = [](ExecTier tier) {
    std::vector<Observed> out;
    auto parsed = vir::ParseModule(corpus::KernelCorpusText(true));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) {
      return out;
    }
    auto module = std::move(*parsed);
    safety::SafetyCompilerOptions copts;
    copts.analysis = corpus::CorpusConfig(true);
    auto report = safety::RunSafetyCompiler(*module, copts);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    Status verified = vir::VerifyModule(*module);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
    SvmOptions options;
    options.interp.tier = tier;
    options.interp.max_steps = 1'000'000;
    SecureVirtualMachine vm(options);
    auto loaded = vm.LoadModule(std::move(module));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (!loaded.ok()) {
      return out;
    }
    std::vector<std::string> names;
    for (const auto& fn : (*loaded)->module().functions()) {
      if (!fn->is_declaration()) {
        names.push_back(fn->name());
      }
    }
    for (const std::string& name : names) {
      const size_t nargs =
          (*loaded)->module().GetFunction(name)->num_args();
      ExecResult r = (*loaded)->Run(name, std::vector<uint64_t>(nargs, 0));
      Observed obs;
      obs.status = name + ": " + r.status.ToString();
      obs.value = r.status.ok() ? r.value : 0;
      obs.steps = r.steps;
      out.push_back(obs);
    }
    return out;
  };
  std::vector<Observed> interp = run_corpus(ExecTier::kInterp);
  const uint64_t interp_fns = InterpFns();
  std::vector<Observed> threaded = run_corpus(ExecTier::kThreaded);
  EXPECT_EQ(InterpFns(), interp_fns);
  ASSERT_EQ(interp.size(), threaded.size());
  EXPECT_GT(threaded.size(), 10u);
  for (size_t i = 0; i < interp.size(); ++i) {
    EXPECT_EQ(interp[i].status, threaded[i].status);
    EXPECT_EQ(interp[i].value, threaded[i].value) << interp[i].status;
    EXPECT_EQ(interp[i].steps, threaded[i].steps) << interp[i].status;
  }
}

// --- Concurrency: replicas on both tiers at once -----------------------------

TEST(TierParity, ConcurrentReplicasAgreeAcrossTiers) {
  // Four threads run the same trapping program — two per tier — against
  // fresh VMs concurrently. Per-tier results and statuses must all match
  // the single-threaded run (the svm-run --cpus harness shape, extended
  // across tiers).
  std::string text = BinProgram("sdiv", 64);
  std::vector<uint64_t> args = {uint64_t{1} << 63, ~uint64_t{0}};
  Observed expect = RunOnTier(text, "f", args, ExecTier::kInterp);
  std::vector<Observed> results(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      ExecTier tier = (t % 2 == 0) ? ExecTier::kInterp : ExecTier::kThreaded;
      results[t] = RunOnTier(text, "f", args, tier);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(results[t].status, expect.status) << "replica " << t;
    EXPECT_EQ(results[t].steps, expect.steps) << "replica " << t;
  }
}

}  // namespace
}  // namespace sva::svm
