// Robustness tests for the load-time trusted path: the bytecode reader and
// the parser must reject (never crash on) malformed input, and the full
// instruction set must survive print/parse/serialize round trips.
#include <gtest/gtest.h>

#include <random>

#include "src/runtime/metapool_runtime.h"
#include "src/svm/interp.h"
#include "src/vir/bytecode.h"
#include "src/vir/parser.h"
#include "src/vir/printer.h"
#include "src/vir/structural_verifier.h"

namespace sva::vir {
namespace {

// One module exercising every opcode of the instruction set.
constexpr const char* kEveryOpcode = R"(
module "every_opcode"
%node = type { i64, [2 x i32], %node* }

metapool MPX th %node complete user classified
targetset 0 = @callee

global @counter : i64 = 3
extern global @rom : [16 x i8]

declare i8* @kmalloc(i64)

define i64 @callee(i64 %x) {
entry:
  ret i64 %x
}

define f64 @float_ops(f64 %a, f64 %b) {
entry:
  %s = fadd f64 %a, %b
  %d = fsub f64 %s, 1.5
  %m = fmul f64 %d, %b
  %q = fdiv f64 %m, 2.0
  %c = fcmp ugt f64 %q, %a
  %sel = select i1 %c, f64 %q, f64 %a
  %i = fptosi f64 %sel to i64
  %back = sitofp i64 %i to f64
  ret f64 %back
}

define i64 @int_ops(i64 %a, i64 %b, i1 %c) {
entry:
  %v0 = add i64 %a, %b
  %v1 = sub i64 %v0, 1
  %v2 = mul i64 %v1, 3
  %v3 = udiv i64 %v2, 2
  %v4 = sdiv i64 %v3, 2
  %v5 = urem i64 %v4, 97
  %v6 = srem i64 %v5, 13
  %v7 = and i64 %v6, 255
  %v8 = or i64 %v7, 16
  %v9 = xor i64 %v8, 5
  %v10 = shl i64 %v9, 2
  %v11 = lshr i64 %v10, 1
  %v12 = ashr i64 %v11, 1
  %t = trunc i64 %v12 to i16
  %z = zext i16 %t to i64
  %sx = sext i16 %t to i64
  %p = inttoptr i64 %z to i8*
  %pi = ptrtoint i8* %p to i64
  %sel = select i1 %c, i64 %sx, i64 %pi
  %cmp = icmp sle i64 %sel, %a
  %r = zext i1 %cmp to i64
  ret i64 %r
}

define i64 @memory_ops(i64 %n) {
entry:
  %stackbuf = alloca i64, i64 4
  store i64 %n, i64* %stackbuf
  %heap = malloc %node, i64 1
  %field = getelementptr %node* %heap, i64 0, i32 1, i64 1
  store i32 7, i32* %field
  %old = atomiclis i64* %stackbuf, 2
  %swapped = cmpxchg i64* %stackbuf, %old, 99
  writebarrier
  %loaded = load i64, i64* %stackbuf
  free %node* %heap
  %sum = add i64 %loaded, %swapped
  ret i64 %sum
}

define i64 @control_ops(i64 %which) {
entry:
  switch i64 %which, label %default, [ 0, label %a ], [ 1, label %b ]
a:
  br label %join
b:
  %cond = icmp eq i64 %which, 1
  br i1 %cond, label %join, label %default
join:
  %phi = phi i64 [ 10, %a ], [ 20, %b ]
  %r = call i64 @callee(i64 %phi)
  ret i64 %r
default:
  unreachable
}
)";

TEST(RoundTripTest, EveryOpcodeSurvivesTextRoundTrip) {
  auto m1 = ParseModule(kEveryOpcode);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  ASSERT_TRUE(VerifyModule(**m1).ok()) << VerifyModule(**m1).ToString();
  std::string text1 = PrintModule(**m1);
  auto m2 = ParseModule(text1);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString() << "\n" << text1;
  EXPECT_EQ(text1, PrintModule(**m2));
}

TEST(RoundTripTest, EveryOpcodeSurvivesBytecodeRoundTrip) {
  auto m1 = ParseModule(kEveryOpcode);
  ASSERT_TRUE(m1.ok());
  std::vector<uint8_t> bytes1 = WriteBytecode(**m1);
  auto m2 = ReadBytecode(bytes1);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();
  ASSERT_TRUE(VerifyModule(**m2).ok()) << VerifyModule(**m2).ToString();
  EXPECT_EQ(bytes1, WriteBytecode(**m2));
}

TEST(RoundTripTest, EveryOpcodeExecutesIdenticallyAfterRoundTrip) {
  auto m1 = ParseModule(kEveryOpcode);
  ASSERT_TRUE(m1.ok());
  auto m2 = ReadBytecode(WriteBytecode(**m1));
  ASSERT_TRUE(m2.ok());
  runtime::MetaPoolRuntime pools1, pools2;
  svm::Interpreter in1(**m1, pools1), in2(**m2, pools2);
  ASSERT_TRUE(in1.Initialize().ok());
  ASSERT_TRUE(in2.Initialize().ok());
  for (uint64_t arg : {0ull, 1ull, 2ull, 41ull, 1000ull}) {
    auto r1 = in1.Run("int_ops", {arg, arg + 3, arg % 2});
    auto r2 = in2.Run("int_ops", {arg, arg + 3, arg % 2});
    ASSERT_TRUE(r1.status.ok());
    ASSERT_TRUE(r2.status.ok());
    EXPECT_EQ(r1.value, r2.value) << "arg=" << arg;
  }
  for (uint64_t which : {0ull, 1ull}) {
    auto r1 = in1.Run("control_ops", {which});
    auto r2 = in2.Run("control_ops", {which});
    ASSERT_TRUE(r1.status.ok());
    EXPECT_EQ(r1.value, r2.value);
  }
  auto r1 = in1.Run("memory_ops", {5});
  auto r2 = in2.Run("memory_ops", {5});
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.value, r2.value);
  // memory_ops: stackbuf 5 -> atomiclis returns 5 (now 7) -> cmpxchg(7 vs
  // old 5) fails, returns 7 -> loaded 7 ... wait cmpxchg expected=%old=5,
  // current is 7 -> no swap, returns 7; loaded = 7; sum = 14.
  EXPECT_EQ(r1.value, 14u);
}

// Fuzz the bytecode reader: single-byte corruptions of a valid image must
// either parse to some module or fail cleanly — never crash or hang.
class BytecodeFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BytecodeFuzzTest, SingleByteCorruptionNeverCrashes) {
  auto m = ParseModule(kEveryOpcode);
  ASSERT_TRUE(m.ok());
  std::vector<uint8_t> bytes = WriteBytecode(**m);
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<size_t> pos_dist(0, bytes.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> corrupted = bytes;
    size_t pos = pos_dist(rng);
    corrupted[pos] = static_cast<uint8_t>(byte_dist(rng));
    auto result = ReadBytecode(corrupted);  // Must return, never crash.
    if (result.ok()) {
      // If it parsed, the structural verifier must also terminate.
      (void)VerifyModule(**result);
    }
  }
}

TEST_P(BytecodeFuzzTest, TruncationNeverCrashes) {
  auto m = ParseModule(kEveryOpcode);
  ASSERT_TRUE(m.ok());
  std::vector<uint8_t> bytes = WriteBytecode(**m);
  std::mt19937 rng(GetParam() + 777);
  std::uniform_int_distribution<size_t> cut_dist(0, bytes.size());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(
                                                 cut_dist(rng)));
    (void)ReadBytecode(cut);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// Parser rejection sweep: every snippet is malformed in a distinct way and
// must produce a ParseError (with a line number), not a crash or success.
class ParserRejectTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRejectTest, MalformedInputRejectedCleanly) {
  auto result = vir::ParseModule(GetParam());
  ASSERT_FALSE(result.ok()) << "accepted malformed input";
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserRejectTest,
    ::testing::Values(
        "",                                      // No module header.
        "module",                                // Missing name.
        "module \"x\"\nbogus top level",         // Unknown top-level.
        "module \"x\"\n%t = type",               // Truncated type decl.
        "module \"x\"\n%t = type { i32",         // Unclosed struct.
        "module \"x\"\nglobal @g",               // Missing type.
        "module \"x\"\nglobal @g : i933",        // Bad int width.
        "module \"x\"\ndeclare @f()",            // Missing return type.
        "module \"x\"\ndefine i32 @f() {\n}",    // Body with no blocks.
        "module \"x\"\ndefine i32 @f() {\nentry:\n  %a = add i32 1\n}",
        "module \"x\"\ndefine i32 @f() {\nentry:\n  ret i32 %nope\n}",
        "module \"x\"\ndefine i32 @f() {\nentry:\n  %a = load i32, i32 5\n  "
        "ret i32 %a\n}",
        "module \"x\"\ndefine void @f() {\nentry:\n  br label\n}",
        "module \"x\"\ndefine void @f() {\nentry:\n  switch i32 1, label "
        "%a, [ x ]\na:\n  ret void\n}",
        "module \"x\"\ntargetset 5 = @f",        // Out-of-order set index.
        "module \"x\"\ndefine i32 @f(i32) {\nentry:\n  ret i32 0\n}",
        // Atomics and getelementptr on a non-pointer operand, and a
        // getelementptr whose indices do not fit its type.
        "module \"x\"\ndefine i64 @f(i64 %x) {\nentry:\n  %p = "
        "getelementptr i64 %x, i64 0\n  ret i64 0\n}",
        "module \"x\"\n%s = type { i64 }\ndefine i64 @f(%s* %p, i64 %i) "
        "{\nentry:\n  %q = getelementptr %s* %p, i64 0, i64 %i\n  "
        "ret i64 0\n}",
        "module \"x\"\ndefine i64 @f(i64 %x) {\nentry:\n  %r = atomiclis "
        "i64 %x, 1\n  ret i64 %r\n}",
        "module \"x\"\ndefine i64 @f(i64 %x) {\nentry:\n  %r = cmpxchg "
        "i64 %x, 1, 2\n  ret i64 %r\n}"));

}  // namespace
}  // namespace sva::vir
