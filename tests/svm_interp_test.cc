#include <fstream>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/support/strings.h"
#include "src/runtime/metapool_runtime.h"
#include "src/svm/interp.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace sva::svm {
namespace {

// This process's resident set in kB, from /proc/self/status; -1 if the
// file or its VmRSS line is missing.
long VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stol(line.substr(6));
    }
  }
  return -1;
}

// Parses, verifies, and prepares a module for execution.
struct Harness {
  explicit Harness(const char* text,
                   runtime::EnforcementMode mode = runtime::EnforcementMode::kTrap,
                   InterpOptions options = {}) {
    auto parsed = vir::ParseModule(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    module = std::move(parsed).value();
    Status verified = vir::VerifyModule(*module);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
    pools = std::make_unique<runtime::MetaPoolRuntime>(mode);
    interp = std::make_unique<Interpreter>(*module, *pools, options);
    Status init = interp->Initialize();
    EXPECT_TRUE(init.ok()) << init.ToString();
  }

  std::unique_ptr<vir::Module> module;
  std::unique_ptr<runtime::MetaPoolRuntime> pools;
  std::unique_ptr<Interpreter> interp;
};

TEST(InterpTest, ArithmeticLoop) {
  Harness h(R"(
module "sum"
define i32 @sum(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %done = icmp sge i32 %i2, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %acc2
}
)");
  ExecResult r = h.interp->Run("sum", {100});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 4950u);
  EXPECT_GT(r.steps, 100u);
}

TEST(InterpTest, SignedArithmeticAndWidths) {
  Harness h(R"(
module "signed"
define i32 @f(i32 %a, i32 %b) {
entry:
  %d = sdiv i32 %a, %b
  %r = srem i32 %a, %b
  %s = add i32 %d, %r
  ret i32 %s
}
define i8 @narrow(i8 %x) {
entry:
  %y = add i8 %x, 1
  ret i8 %y
}
define i64 @extend(i8 %x) {
entry:
  %s = sext i8 %x to i64
  ret i64 %s
}
)");
  // -7 / 2 = -3 (trunc toward zero), -7 % 2 = -1; sum = -4.
  ExecResult r = h.interp->Run("f", {static_cast<uint64_t>(-7) & 0xFFFFFFFF, 2});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(static_cast<int32_t>(r.value), -4);
  // i8 wraps.
  r = h.interp->Run("narrow", {0xFF});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.value, 0u);
  // sext i8 -1 -> i64 -1.
  r = h.interp->Run("extend", {0x80});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(static_cast<int64_t>(r.value), -128);
}

TEST(InterpTest, DivisionByZeroTraps) {
  Harness h(R"(
module "div0"
define i32 @f(i32 %a, i32 %b) {
entry:
  %d = udiv i32 %a, %b
  ret i32 %d
}
)");
  ExecResult r = h.interp->Run("f", {10, 0});
  EXPECT_EQ(r.status.code(), StatusCode::kSafetyViolation);
}

TEST(InterpTest, GlobalsLoadsStoresGeps) {
  Harness h(R"(
module "mem"
%pair = type { i32, i64 }

global @counter : i64 = 5
global @pairs : [4 x %pair]

define i64 @bump(i64 %by) {
entry:
  %v = load i64, i64* @counter
  %v2 = add i64 %v, %by
  store i64 %v2, i64* @counter
  ret i64 %v2
}
define i64 @use_pair(i64 %i, i64 %x) {
entry:
  %slot = getelementptr [4 x %pair]* @pairs, i64 0, i64 %i, i32 1
  store i64 %x, i64* %slot
  %back = load i64, i64* %slot
  ret i64 %back
}
)");
  ExecResult r = h.interp->Run("bump", {3});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 8u);
  r = h.interp->Run("bump", {1});
  EXPECT_EQ(r.value, 9u);  // Global state persists across calls.
  r = h.interp->Run("use_pair", {2, 777});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 777u);
}

TEST(InterpTest, NullDereferenceFaults) {
  Harness h(R"(
module "null"
define i32 @f(i32* %p) {
entry:
  %v = load i32, i32* %p
  ret i32 %v
}
)");
  ExecResult r = h.interp->Run("f", {0});
  EXPECT_EQ(r.status.code(), StatusCode::kSafetyViolation);
  EXPECT_NE(r.status.message().find("null"), std::string::npos);
}

TEST(InterpTest, AllocaStackDiscipline) {
  Harness h(R"(
module "stack"
define i64 @leaf(i64 %x) {
entry:
  %buf = alloca i64, i64 8
  store i64 %x, i64* %buf
  %v = load i64, i64* %buf
  ret i64 %v
}
define i64 @caller() {
entry:
  %a = call i64 @leaf(i64 11)
  %b = call i64 @leaf(i64 31)
  %s = add i64 %a, %b
  ret i64 %s
}
)");
  ExecResult r = h.interp->Run("caller", {});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 42u);
}

TEST(InterpTest, MallocFreeViaOrdinaryAllocator) {
  Harness h(R"(
module "heap"
define i64 @roundtrip(i64 %x) {
entry:
  %p = malloc i64, i64 4
  %slot = getelementptr i64* %p, i64 3
  store i64 %x, i64* %slot
  %v = load i64, i64* %slot
  free i64* %p
  ret i64 %v
}
)");
  ExecResult r = h.interp->Run("roundtrip", {123});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 123u);
}

TEST(InterpTest, DoubleFreeTraps) {
  Harness h(R"(
module "df"
define void @f() {
entry:
  %p = malloc i64, i64 1
  free i64* %p
  free i64* %p
  ret void
}
)");
  ExecResult r = h.interp->Run("f", {});
  EXPECT_EQ(r.status.code(), StatusCode::kSafetyViolation);
}

TEST(InterpTest, HostFunctionBinding) {
  Harness h(R"(
module "host"
declare i64 @mystery(i64)
define i64 @f(i64 %x) {
entry:
  %r = call i64 @mystery(i64 %x)
  ret i64 %r
}
)");
  h.interp->BindHost("mystery",
                     [](Interpreter&, std::span<const uint64_t> args)
                         -> Result<uint64_t> { return args[0] * 3; });
  ExecResult r = h.interp->Run("f", {14});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.value, 42u);
  // Unbound externals fail cleanly.
  Harness h2(R"(
module "host2"
declare i64 @nope(i64)
define i64 @f() {
entry:
  %r = call i64 @nope(i64 1)
  ret i64 %r
}
)");
  EXPECT_EQ(h2.interp->Run("f", {}).status.code(),
            StatusCode::kUnimplemented);
}

TEST(InterpTest, KernelAllocatorsViaHostCalls) {
  Harness h(R"(
module "kalloc"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)
declare i8* @kmem_cache_create(i64)
declare i8* @kmem_cache_alloc(i8*)
declare void @kmem_cache_free(i8*, i8*)

define i64 @heap_cycle() {
entry:
  %p = call i8* @kmalloc(i64 96)
  %q = bitcast i8* %p to i64*
  store i64 7, i64* %q
  %v = load i64, i64* %q
  call void @kfree(i8* %p)
  ret i64 %v
}
define i64 @cache_cycle() {
entry:
  %cache = call i8* @kmem_cache_create(i64 128)
  %o1 = call i8* @kmem_cache_alloc(i8* %cache)
  %o2 = call i8* @kmem_cache_alloc(i8* %cache)
  call void @kmem_cache_free(i8* %cache, i8* %o1)
  %o3 = call i8* @kmem_cache_alloc(i8* %cache)
  %same = icmp eq i8* %o1, %o3
  %r = zext i1 %same to i64
  call void @kmem_cache_free(i8* %cache, i8* %o2)
  call void @kmem_cache_free(i8* %cache, i8* %o3)
  ret i64 %r
}
)");
  ExecResult r = h.interp->Run("heap_cycle", {});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 7u);
  r = h.interp->Run("cache_cycle", {});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 1u) << "pool must reuse freed slots internally";
}

TEST(InterpTest, ChecksFireThroughIntrinsics) {
  Harness h(R"(
module "checked"
metapool MP1 complete

declare i8* @kmalloc(i64)

define i8 @overflow(i64 %idx) {
entry:
  %p = call i8* @kmalloc(i64 16)
  call void @pchk.reg.obj(%sva.metapool* @MP1, i8* %p, i64 16)
  %slot = getelementptr i8* %p, i64 %idx
  call void @sva.boundscheck(%sva.metapool* @MP1, i8* %p, i8* %slot)
  %v = load i8, i8* %slot
  ret i8 %v
}
)");
  ExecResult ok = h.interp->Run("overflow", {15});
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  ExecResult bad = h.interp->Run("overflow", {16});
  EXPECT_EQ(bad.status.code(), StatusCode::kSafetyViolation);
  EXPECT_EQ(h.pools->violations().size(), 1u);
  EXPECT_EQ(h.pools->violations()[0].kind, runtime::CheckKind::kBounds);
}

TEST(InterpTest, ChecksCanBeDisabled) {
  InterpOptions opts;
  opts.enforce_checks = false;
  Harness h(R"(
module "unchecked"
metapool MP1 complete
declare i8* @kmalloc(i64)
define i8 @overflow(i64 %idx) {
entry:
  %p = call i8* @kmalloc(i64 16)
  call void @pchk.reg.obj(%sva.metapool* @MP1, i8* %p, i64 16)
  %slot = getelementptr i8* %p, i64 %idx
  call void @sva.boundscheck(%sva.metapool* @MP1, i8* %p, i8* %slot)
  %v = load i8, i8* %slot
  ret i8 %v
}
)",
            runtime::EnforcementMode::kTrap, opts);
  // Overflow within the arena is not caught when checks are off (this is
  // the "native" configuration).
  ExecResult r = h.interp->Run("overflow", {16});
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(h.pools->violations().empty());
}

TEST(InterpTest, IndirectCallsAndTargetSets) {
  Harness h(R"(
module "indirect"
targetset 0 = @inc @dec

global @table : [2 x i64 (i64)*]

define i64 @inc(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
define i64 @dec(i64 %x) {
entry:
  %r = sub i64 %x, 1
  ret i64 %r
}
define i64 @evil(i64 %x) {
entry:
  ret i64 666
}
define void @setup() {
entry:
  %s0 = getelementptr [2 x i64 (i64)*]* @table, i64 0, i64 0
  store i64 (i64)* @inc, i64 (i64)** %s0
  %s1 = getelementptr [2 x i64 (i64)*]* @table, i64 0, i64 1
  store i64 (i64)* @dec, i64 (i64)** %s1
  ret void
}
define i64 @dispatch(i64 %which, i64 %x) {
entry:
  %slot = getelementptr [2 x i64 (i64)*]* @table, i64 0, i64 %which
  %fp = load i64 (i64)*, i64 (i64)** %slot
  %fpc = bitcast i64 (i64)* %fp to i8*
  call void @sva.indirectcheck(i8* %fpc, i64 0)
  %r = call i64 %fp(i64 %x)
  ret i64 %r
}
define i64 @hijack(i64 %x) {
entry:
  %s0 = getelementptr [2 x i64 (i64)*]* @table, i64 0, i64 0
  store i64 (i64)* @evil, i64 (i64)** %s0
  %r = call i64 @dispatch(i64 0, i64 %x)
  ret i64 %r
}
)");
  ASSERT_TRUE(h.interp->Run("setup", {}).status.ok());
  ExecResult r = h.interp->Run("dispatch", {0, 41});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 42u);
  r = h.interp->Run("dispatch", {1, 41});
  EXPECT_EQ(r.value, 40u);
  // Control-flow integrity: a function outside the computed callee set is
  // rejected even though it is a legitimate function elsewhere (T1).
  r = h.interp->Run("hijack", {41});
  EXPECT_EQ(r.status.code(), StatusCode::kSafetyViolation);
  EXPECT_EQ(h.pools->violations().back().kind,
            runtime::CheckKind::kIndirectCall);
}

TEST(InterpTest, UserspacePoolsRegisteredAtLoad) {
  Harness h(R"(
module "user"
metapool MPU user
define i64 @nop() {
entry:
  ret i64 0
}
)");
  runtime::MetaPool* pool = h.interp->PoolByName("MPU");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->live_objects(), 1u);  // The userspace object.
  EXPECT_TRUE(
      pool->Lookup(h.interp->memory().user_base() + 100).has_value());
}

TEST(InterpTest, StepBudgetStopsRunawayLoops) {
  InterpOptions opts;
  opts.max_steps = 10'000;
  Harness h(R"(
module "spin"
define void @spin() {
entry:
  br label %loop
loop:
  br label %loop
}
)",
            runtime::EnforcementMode::kTrap, opts);
  ExecResult r = h.interp->Run("spin", {});
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.message().find("budget"), std::string::npos);
}

TEST(InterpTest, RecursionWorksAndDepthIsBounded) {
  Harness h(R"(
module "rec"
define i64 @fib(i64 %n) {
entry:
  %small = icmp sle i64 %n, 1
  br i1 %small, label %base, label %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %a = call i64 @fib(i64 %n1)
  %b = call i64 @fib(i64 %n2)
  %s = add i64 %a, %b
  ret i64 %s
}
define void @forever() {
entry:
  call void @forever()
  ret void
}
)");
  ExecResult r = h.interp->Run("fib", {15});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.value, 610u);
  EXPECT_EQ(h.interp->Run("forever", {}).status.code(),
            StatusCode::kInternal);
}

TEST(InterpTest, FloatingPointPath) {
  Harness h(R"(
module "fp"
define f64 @mix(f64 %a, f64 %b, i64 %n) {
entry:
  %c = fadd f64 %a, %b
  %d = fmul f64 %c, 2.0
  %n_f = sitofp i64 %n to f64
  %e = fdiv f64 %d, %n_f
  ret f64 %e
}
define i64 @round(f64 %a) {
entry:
  %i = fptosi f64 %a to i64
  ret i64 %i
}
)");
  // Floats pass via the float argument path; int args fill the int slots.
  // mix(1.5, 2.5, 4) = (1.5+2.5)*2/4 = 2.0
  Interpreter& in = *h.interp;
  // Direct float args are not expressible through Run's integer interface;
  // exercise via a wrapper computed in bytecode instead.
  auto parsed = vir::ParseModule(R"(
module "fp2"
define i64 @go() {
entry:
  %x = fadd f64 1.5, 2.5
  %y = fmul f64 %x, 2.0
  %z = fdiv f64 %y, 4.0
  %i = fptosi f64 %z to i64
  ret i64 %i
}
)");
  ASSERT_TRUE(parsed.ok());
  runtime::MetaPoolRuntime pools2;
  Interpreter in2(**parsed, pools2);
  ASSERT_TRUE(in2.Initialize().ok());
  ExecResult r = in2.Run("go", {});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 2u);
  (void)in;
}

TEST(InterpTest, CopyFromUserIsUncheckedLibraryCode) {
  // copy_from_user blindly copies: this models the external kernel library
  // that made SVA miss the ELF-loader exploit (Section 7.2).
  Harness h(R"(
module "cfu"
declare i8* @kmalloc(i64)
declare void @copy_from_user(i8*, i8*, i64)
define i64 @read_user(i64 %usrc, i64 %len) {
entry:
  %buf = call i8* @kmalloc(i64 64)
  %src = inttoptr i64 %usrc to i8*
  call void @copy_from_user(i8* %buf, i8* %src, i64 %len)
  %v = load i8, i8* %buf
  %r = zext i8 %v to i64
  ret i64 %r
}
)");
  uint64_t user = h.interp->memory().user_base();
  ASSERT_TRUE(h.interp->memory().Write(user, 1, 0x5A).ok());
  ExecResult r = h.interp->Run("read_user", {user, 8});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.value, 0x5Au);
  // An overlong copy silently overruns the 64-byte buffer: no trap, because
  // the copy routine is outside the analyzed bytecode.
  r = h.interp->Run("read_user", {user, 4096});
  EXPECT_TRUE(r.status.ok());
}
TEST(AddressSpaceTest, ArenaIsLazilyZeroFilled) {
  const long before = VmRssKb();
  ASSERT_GT(before, 0);
  constexpr uint64_t kSize = 1ull << 30;
  AddressSpace space(kSize);
  EXPECT_LT(VmRssKb() - before, 16 * 1024) << "a 1 GiB arena was committed";
  EXPECT_EQ(space.size(), kSize);
  EXPECT_EQ(*space.Read(kSize - 8, 8), 0u);
  ASSERT_TRUE(space.Write(512ull << 20, 8, 0x5A5A).ok());
  EXPECT_EQ(*space.Read(512ull << 20, 8), 0x5A5Au);
  EXPECT_FALSE(space.Read(kSize - 4, 8).ok());
  uint64_t region = space.AllocateRegion(4096, 4096);
  ASSERT_NE(region, 0u);
  EXPECT_EQ(*space.Read(region, 8), 0u);
}

TEST(AddressSpaceTest, WordsAreLittleEndianAndFaultsAreExact) {
  AddressSpace space(1 << 20);
  const uint64_t at = space.kernel_base();
  ASSERT_TRUE(space.Write(at, 8, 0x1122334455667788ull).ok());
  EXPECT_EQ(*space.Read(at, 1), 0x88u);
  EXPECT_EQ(*space.Read(at, 2), 0x7788u);
  EXPECT_EQ(*space.Read(at, 4), 0x55667788u);
  EXPECT_EQ(*space.Read(at + 4, 4), 0x11223344u);
  EXPECT_EQ(*space.Read(at + 1, 8), 0x0011223344556677ull);
  ASSERT_TRUE(space.Write(at + 2, 2, 0xABCD).ok());
  EXPECT_EQ(*space.Read(at, 8), 0x11223344ABCD7788ull);
  // The last byte is accessible; one byte more is not, and neither is the
  // null page or an access whose end wraps around.
  EXPECT_TRUE(space.Write(space.size() - 1, 1, 7).ok());
  EXPECT_EQ(*space.Read(space.size() - 1, 1), 7u);
  Status beyond = space.Write(space.size() - 1, 2, 0);
  EXPECT_EQ(beyond.code(), StatusCode::kSafetyViolation);
  EXPECT_NE(beyond.message().find("beyond physical memory"),
            std::string::npos);
  Status null = space.Read(8, 8).status();
  EXPECT_NE(null.message().find("null-page access at 0x8"), std::string::npos)
      << null.ToString();
  EXPECT_FALSE(space.Read(~uint64_t{0} - 3, 8).ok());
}

TEST(AddressSpaceTest, ArenaThatCannotBeMappedFailsConstruction) {
  EXPECT_THROW(AddressSpace(uint64_t{1} << 62), std::bad_alloc);
}

// Parameterized sweep: shift semantics across widths.
class ShiftSweepTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(ShiftSweepTest, ShlMatchesReference) {
  auto [bits, amount] = GetParam();
  std::string text = sva::StrCat(
      "module \"shift\"\ndefine i", bits, " @f(i", bits, " %x, i", bits,
      " %s) {\nentry:\n  %r = shl i", bits, " %x, %s\n  ret i", bits,
      " %r\n}\n");
  Harness h(text.c_str());
  uint64_t x = 0x9E;
  ExecResult r = h.interp->Run("f", {x, amount});
  ASSERT_TRUE(r.status.ok());
  uint64_t expect =
      amount >= bits
          ? 0
          : (x << amount) &
                (bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1));
  EXPECT_EQ(r.value, expect) << "bits=" << bits << " amount=" << amount;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShiftSweepTest,
    ::testing::Combine(::testing::Values(8u, 16u, 32u, 64u),
                       ::testing::Values(0u, 1u, 7u, 8u, 31u, 63u, 64u)));

}  // namespace
}  // namespace sva::svm
