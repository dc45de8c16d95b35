#include <gtest/gtest.h>

#include "src/safety/compiler.h"
#include "src/svm/svm.h"
#include "src/vir/bytecode.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"
#include "src/vir/printer.h"
#include "src/vir/structural_verifier.h"

namespace sva::safety {
namespace {

std::unique_ptr<vir::Module> Parse(const char* text) {
  auto m = vir::ParseModule(text);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  Status v = vir::VerifyModule(**m);
  EXPECT_TRUE(v.ok()) << v.ToString();
  return std::move(m).value();
}

// Compiles with the safety compiler, re-verifies, and loads into the SVM.
struct Pipeline {
  explicit Pipeline(const char* text, SafetyCompilerOptions options = {}) {
    module = Parse(text);
    auto r = RunSafetyCompiler(*module, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      report = *r;
    }
    Status v = vir::VerifyModule(*module);
    EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << vir::PrintModule(*module);
    auto lr = svm_.LoadModule(std::move(module));
    EXPECT_TRUE(lr.ok()) << lr.status().ToString();
    if (lr.ok()) {
      loaded = std::move(lr).value();
    }
  }

  svm::SecureVirtualMachine svm_;
  std::unique_ptr<vir::Module> module;
  std::unique_ptr<svm::LoadedModule> loaded;
  SafetyReport report;
};

constexpr const char* kHeapOverflow = R"(
module "heap_overflow"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i8 @poke(i64 %idx) {
entry:
  %buf = call i8* @kmalloc(i64 32)
  %slot = getelementptr i8* %buf, i64 %idx
  %v = load i8, i8* %slot
  call void @kfree(i8* %buf)
  ret i8 %v
}
)";

TEST(SafetyCompilerTest, InsertsRegistrationAndChecks) {
  Pipeline p(kHeapOverflow);
  EXPECT_GE(p.report.metapools, 1u);
  EXPECT_GE(p.report.reg_obj, 1u);
  EXPECT_GE(p.report.drop_obj, 1u);
  EXPECT_GE(p.report.direct_bounds_checks + p.report.bounds_checks, 1u);
  std::string text = vir::PrintModule(*p.loaded->module().GetFunction("poke")
                                           ->parent());
  EXPECT_NE(text.find("pchk.reg.obj"), std::string::npos);
  EXPECT_NE(text.find("pchk.drop.obj"), std::string::npos);
}

TEST(SafetyCompilerTest, CatchesHeapOverflowAtRuntime) {
  Pipeline p(kHeapOverflow);
  ASSERT_NE(p.loaded, nullptr);
  // In-bounds access is unaffected.
  svm::ExecResult ok = p.loaded->Run("poke", {31});
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  // Out-of-bounds access trips the inserted bounds check.
  svm::ExecResult bad = p.loaded->Run("poke", {32});
  EXPECT_EQ(bad.status.code(), StatusCode::kSafetyViolation);
  EXPECT_FALSE(p.loaded->pools().violations().empty());
}

TEST(SafetyCompilerTest, GlobalArrayOverflowCaught) {
  Pipeline p(R"(
module "global_oob"
global @table : [16 x i32]

define i32 @peek(i64 %idx) {
entry:
  %slot = getelementptr [16 x i32]* @table, i64 0, i64 %idx
  %v = load i32, i32* %slot
  ret i32 %v
}
)");
  ASSERT_NE(p.loaded, nullptr);
  EXPECT_GE(p.report.global_registrations, 1u);
  EXPECT_TRUE(p.loaded->Run("peek", {15}).status.ok());
  svm::ExecResult bad = p.loaded->Run("peek", {16});
  EXPECT_EQ(bad.status.code(), StatusCode::kSafetyViolation);
}

TEST(SafetyCompilerTest, StaticSafeGepsAreElided) {
  Pipeline p(R"(
module "static_safe"
%vec = type { i32, [4 x i32] }
global @v : %vec

define i32 @get2() {
entry:
  %slot = getelementptr %vec* @v, i64 0, i32 1, i64 2
  %x = load i32, i32* %slot
  ret i32 %x
}
)");
  EXPECT_GE(p.report.elided_bounds_checks, 1u);
  EXPECT_EQ(p.report.bounds_checks + p.report.direct_bounds_checks, 0u);
  EXPECT_TRUE(p.loaded->Run("get2", {}).status.ok());
}

TEST(SafetyCompilerTest, StackObjectsRegisteredAndDropped) {
  Pipeline p(R"(
module "stack"
define i8 @local(i64 %idx) {
entry:
  %buf = alloca i8, i64 16
  %slot = getelementptr i8* %buf, i64 %idx
  store i8 7, i8* %slot
  %v = load i8, i8* %slot
  ret i8 %v
}
define i8 @wrapper(i64 %idx) {
entry:
  %a = call i8 @local(i64 %idx)
  %b = call i8 @local(i64 %idx)
  %s = add i8 %a, %b
  ret i8 %s
}
)");
  EXPECT_GE(p.report.stack_registrations, 1u);
  ASSERT_NE(p.loaded, nullptr);
  // Registration/drop must balance: calling twice reuses the stack slot.
  EXPECT_TRUE(p.loaded->Run("wrapper", {3}).status.ok());
  // Stack smash is caught.
  svm::ExecResult bad = p.loaded->Run("local", {16});
  EXPECT_EQ(bad.status.code(), StatusCode::kSafetyViolation);
}

TEST(SafetyCompilerTest, EscapingAllocaPromotedToHeap) {
  Pipeline p(R"(
module "escape"
global @stash : i32*

define void @leak() {
entry:
  %obj = alloca i32, i64 1
  store i32* %obj, i32** @stash
  ret void
}
define i32 @use_after_return() {
entry:
  call void @leak()
  %p = load i32*, i32** @stash
  %v = load i32, i32* %p
  ret i32 %v
}
)");
  EXPECT_EQ(p.report.stack_promotions, 1u);
  ASSERT_NE(p.loaded, nullptr);
  // The promoted object lives on the heap; the dangling use stays within
  // its (freed but pool-bound) object, so it is rendered harmless rather
  // than trapping (dangling pointers are not detected, Section 4.1).
  svm::ExecResult r = p.loaded->Run("use_after_return", {});
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
}

TEST(SafetyCompilerTest, TypeHomogeneousPoolsSkipLoadStoreChecks) {
  Pipeline p(R"(
module "th"
%node = type { i64, i64 }
declare i8* @kmalloc(i64)

define i64 @touch() {
entry:
  %raw = call i8* @kmalloc(i64 16)
  %n = bitcast i8* %raw to %node*
  %f = getelementptr %node* %n, i64 0, i32 0
  store i64 5, i64* %f
  %v = load i64, i64* %f
  ret i64 %v
}
)");
  EXPECT_GE(p.report.elided_th_ls_checks, 1u);
  EXPECT_TRUE(p.loaded->Run("touch", {}).status.ok());
}

TEST(SafetyCompilerTest, NonTHCompletePoolsGetLoadStoreChecks) {
  Pipeline p(R"(
module "nonth"
declare i8* @kmalloc(i64)

define i64 @mixed(i1 %c) {
entry:
  %raw = call i8* @kmalloc(i64 16)
  %as64 = bitcast i8* %raw to i64*
  store i64 1, i64* %as64
  %as32 = bitcast i8* %raw to i32*
  store i32 2, i32* %as32
  %v = load i64, i64* %as64
  ret i64 %v
}
)");
  EXPECT_GE(p.report.ls_checks, 1u);
  EXPECT_TRUE(p.loaded->Run("mixed", {0}).status.ok());
}

TEST(SafetyCompilerTest, KernelPoolCorrelationMergesPartitions) {
  // Two kmalloc call sites with the same size class share internal reuse,
  // so their partitions must merge into one metapool (Section 4.3).
  Pipeline p(R"(
module "merge"
declare i8* @kmalloc(i64)
define void @two() {
entry:
  %a = call i8* @kmalloc(i64 100)
  %b = call i8* @kmalloc(i64 100)
  store i8 1, i8* %a
  store i8 2, i8* %b
  ret void
}
)");
  EXPECT_GE(p.report.merged_by_kernel_pools, 1u);
  vir::Module& m = p.loaded->module();
  vir::Function* two = m.GetFunction("two");
  // Both kmalloc results carry the same metapool annotation.
  std::vector<std::string> pools;
  for (vir::Instruction* inst : two->AllInstructions()) {
    const auto* call = dynamic_cast<const vir::CallInst*>(inst);
    if (call != nullptr && call->called_function() != nullptr &&
        call->called_function()->name() == "kmalloc") {
      pools.push_back(m.MetapoolOf(call));
    }
  }
  ASSERT_EQ(pools.size(), 2u);
  EXPECT_FALSE(pools[0].empty());
  EXPECT_EQ(pools[0], pools[1]);
}

TEST(SafetyCompilerTest, IncompletePoolsGetReducedChecks) {
  SafetyCompilerOptions options;
  Pipeline p(R"(
module "reduced"
declare void @external_driver(i8*)
declare i8* @kmalloc(i64)

define i8 @shared(i64 %idx) {
entry:
  %buf = call i8* @kmalloc(i64 32)
  call void @external_driver(i8* %buf)
  %slot = getelementptr i8* %buf, i64 %idx
  %v = load i8, i8* %slot
  ret i8 %v
}
)",
             options);
  EXPECT_GE(p.report.reduced_ls_checks, 1u);
  // Bind a no-op host for the external driver so execution reaches the
  // overflow.
  p.loaded->interpreter().BindHost(
      "external_driver",
      [](svm::Interpreter&, std::span<const uint64_t>) -> Result<uint64_t> {
        return uint64_t{0};
      });
  // The bounds check still exists (registered objects are still checked on
  // incomplete partitions) and still catches the overflow when the source
  // object is registered.
  svm::ExecResult bad = p.loaded->Run("shared", {32});
  EXPECT_EQ(bad.status.code(), StatusCode::kSafetyViolation);
}

TEST(SafetyCompilerTest, IndirectCallChecksInserted) {
  Pipeline p(R"(
module "icall"
global @handler : i64 (i64)*

define i64 @real(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
define void @setup() {
entry:
  store i64 (i64)* @real, i64 (i64)** @handler
  ret void
}
define i64 @go(i64 %x) {
entry:
  %fp = load i64 (i64)*, i64 (i64)** @handler
  %r = call i64 %fp(i64 %x)
  ret i64 %r
}
)");
  EXPECT_GE(p.report.indirect_checks, 1u);
  ASSERT_TRUE(p.loaded->Run("setup", {}).status.ok());
  svm::ExecResult r = p.loaded->Run("go", {41});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 42u);
}

TEST(SafetyCompilerTest, OutputPassesTypeChecker) {
  Pipeline p(kHeapOverflow);
  verifier::TypeCheckResult result =
      verifier::TypeCheckModule(p.loaded->module());
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

TEST(SafetyCompilerTest, MetricsArePopulated) {
  Pipeline p(kHeapOverflow);
  EXPECT_GE(p.report.loads.total, 1u);
  EXPECT_GE(p.report.array_indexing.total, 1u);
  EXPECT_EQ(p.report.allocation_sites, 1u);
  EXPECT_EQ(p.report.allocation_sites_registered, 1u);
}

// --- Check elimination ---------------------------------------------------------

// A byte loop over a kmalloc'd buffer (monotonic range) that also bumps a
// non-TH global each iteration (loop-invariant load-store checks, one a
// duplicate of the other once both sit in the preheader).
constexpr const char* kCountedLoop = R"(
module "elim"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)
global @ticks : i64

define i64 @sum(i8* %buf, i64 %len) {
entry:
  %zero = icmp eq i64 %len, 0
  br i1 %zero, label %done, label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  %slot = getelementptr i8* %buf, i64 %i
  %v = load i8, i8* %slot
  %v64 = zext i8 %v to i64
  %acc2 = add i64 %acc, %v64
  %t = load i64, i64* @ticks
  %t2 = add i64 %t, 1
  store i64 %t2, i64* @ticks
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, %len
  br i1 %more, label %loop, label %done
done:
  %r = phi i64 [ 0, %entry ], [ %acc2, %loop ]
  ret i64 %r
}

define i64 @run(i64 %len) {
entry:
  %tb = bitcast i64* @ticks to i8*
  store i8 0, i8* %tb
  %buf = call i8* @kmalloc(i64 64)
  %r = call i64 @sum(i8* %buf, i64 %len)
  call void @kfree(i8* %buf)
  %t = load i64, i64* @ticks
  ret i64 %t
}

define i64 @run_mid(i64 %len) {
entry:
  %buf = call i8* @kmalloc(i64 64)
  %mid = getelementptr i8* %buf, i64 16
  %r = call i64 @sum(i8* %mid, i64 %len)
  call void @kfree(i8* %buf)
  ret i64 %r
}
)";

SafetyCompilerOptions WholeProgram(bool eliminate) {
  SafetyCompilerOptions options;
  options.analysis.whole_program = true;
  options.analysis.entry_points = {"run", "run_mid"};
  options.run_cloning = false;  // One @sum for both callers.
  if (!eliminate) {
    options.elimination = {false, false, false};
  }
  return options;
}

// Bounds checks `run(len)` performs, or -1 if it does not return `len`.
int64_t BoundsChecksOf(Pipeline& p, uint64_t len) {
  const uint64_t before = p.loaded->pools().stats().bounds_performed;
  svm::ExecResult r = p.loaded->Run("run", {len});
  if (!r.status.ok() || r.value != len) {
    return -1;
  }
  return static_cast<int64_t>(p.loaded->pools().stats().bounds_performed -
                              before);
}

TEST(CheckEliminationTest, EachStepFiresOnACountedLoop) {
  Pipeline p(kCountedLoop, WholeProgram(true));
  const CheckEliminationReport& e = p.report.eliminated;
  EXPECT_EQ(e.range_covered, 1u);  // The per-byte bounds check.
  EXPECT_EQ(e.range_checks, 2u);   // Its splay check and order guard.
  EXPECT_EQ(e.hoisted, 2u);        // The @ticks load and store checks.
  EXPECT_EQ(e.duplicates, 1u);     // One of the two, once hoisted.
  // The inserted counts keep their meaning.
  EXPECT_EQ(p.report.bounds_checks, 1u);
  EXPECT_EQ(p.report.ls_checks, 4u);
  verifier::TypeCheckResult typed =
      verifier::TypeCheckModule(p.loaded->module());
  EXPECT_TRUE(typed.ok) << (typed.errors.empty() ? "" : typed.errors[0]);
}

TEST(CheckEliminationTest, RangeCheckRunsOncePerLoopEntry) {
  Pipeline elim(kCountedLoop, WholeProgram(true));
  Pipeline full(kCountedLoop, WholeProgram(false));
  EXPECT_EQ(full.report.eliminated.range_covered +
                full.report.eliminated.hoisted +
                full.report.eliminated.duplicates,
            0u);
  EXPECT_EQ(BoundsChecksOf(full, 64), 64);
  EXPECT_EQ(BoundsChecksOf(elim, 64), 2);
  EXPECT_EQ(BoundsChecksOf(elim, 1), 2);
  // The zero-trip guard branches around the split-off preheader.
  EXPECT_EQ(BoundsChecksOf(elim, 0), 0);
}

TEST(CheckEliminationTest, OverrunTrapsBeforeTheLoop) {
  Pipeline elim(kCountedLoop, WholeProgram(true));
  Pipeline full(kCountedLoop, WholeProgram(false));
  for (uint64_t len : {65u, 4096u}) {
    svm::ExecResult a = elim.loaded->Run("run", {len});
    svm::ExecResult b = full.loaded->Run("run", {len});
    EXPECT_EQ(a.status.code(), StatusCode::kSafetyViolation) << len;
    EXPECT_EQ(b.status.code(), StatusCode::kSafetyViolation) << len;
    // The range check fires before the first iteration; the per-byte
    // check only once the loop reaches byte 64.
    EXPECT_LT(a.steps, b.steps) << len;
  }
  EXPECT_EQ(elim.loaded->pools().stats().bounds_failed, 2u);
}

TEST(CheckEliminationTest, ALengthThatWrapsTheAddressSpaceTraps) {
  // From 16 bytes into the buffer, base + (len - 1) wraps to 6 bytes
  // below base, still inside the object, so the splay check passes; the
  // order guard (base <= last) is what stops the loop.
  Pipeline elim(kCountedLoop, WholeProgram(true));
  svm::ExecResult r = elim.loaded->Run("run_mid", {~uint64_t{0} - 4});
  EXPECT_EQ(r.status.code(), StatusCode::kSafetyViolation);
  EXPECT_NE(r.status.message().find("outside static bounds"),
            std::string::npos)
      << r.status.ToString();
  EXPECT_TRUE(elim.loaded->Run("run_mid", {48}).status.ok());
}

TEST(SafetyCompilerTest, SvmCachesSignedTranslations) {
  auto module = Parse(kHeapOverflow);
  auto r = RunSafetyCompiler(*module);
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> bytecode = vir::WriteBytecode(*module);
  svm::SecureVirtualMachine svm;
  EXPECT_FALSE(svm.CacheContains(bytecode));
  auto loaded = svm.LoadBytecode(bytecode);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(svm.CacheContains(bytecode));
  // A tampered image does not hit the signed cache.
  std::vector<uint8_t> tampered = bytecode;
  tampered[tampered.size() - 1] ^= 0xFF;
  EXPECT_FALSE(svm.CacheContains(tampered));
  // The loaded module executes with checks live.
  EXPECT_EQ((*loaded)->Run("poke", {40}).status.code(),
            StatusCode::kSafetyViolation);
}

}  // namespace
}  // namespace sva::safety
