#include <gtest/gtest.h>

#include "src/corpus/corpus.h"
#include "src/safety/compiler.h"
#include "src/verifier/injector.h"
#include "src/verifier/typechecker.h"
#include "src/vir/bytecode.h"
#include "src/vir/check_analysis.h"
#include "src/vir/parser.h"
#include "src/vir/printer.h"

namespace sva::verifier {
namespace {

// A kernel-flavoured module with several metapools, pointer nesting, and
// checks — rich enough that every bug kind has injection sites.
constexpr const char* kRichKernel = R"(
module "richk"
%inode = type { i64, i64, i8* }
%dentry = type { %inode*, i64 }

declare i8* @kmalloc(i64)
declare void @kfree(i8*)

global @root_inode : %inode
global @name_table : [8 x i8*]

define %inode* @alloc_inode() {
entry:
  %raw = call i8* @kmalloc(i64 24)
  %i = bitcast i8* %raw to %inode*
  ret %inode* %i
}
define %dentry* @alloc_dentry(%inode* %ino) {
entry:
  %raw = call i8* @kmalloc(i64 16)
  %d = bitcast i8* %raw to %dentry*
  %slot = getelementptr %dentry* %d, i64 0, i32 0
  store %inode* %ino, %inode** %slot
  ret %dentry* %d
}
define i64 @read_size(%dentry* %d) {
entry:
  %slot = getelementptr %dentry* %d, i64 0, i32 0
  %ino = load %inode*, %inode** %slot
  %szp = getelementptr %inode* %ino, i64 0, i32 0
  %sz = load i64, i64* %szp
  ret i64 %sz
}
define void @drive(i64 %n) {
entry:
  %ino = call %inode* @alloc_inode()
  %d = call %dentry* @alloc_dentry(%inode* %ino)
  %sz = call i64 @read_size(%dentry* %d)
  %szp = getelementptr %inode* %ino, i64 0, i32 0
  store i64 %n, i64* %szp
  %dc = bitcast %dentry* %d to i8*
  call void @kfree(i8* %dc)
  %ic = bitcast %inode* %ino to i8*
  call void @kfree(i8* %ic)
  ret void
}
)";

std::unique_ptr<vir::Module> CompiledModule() {
  auto m = vir::ParseModule(kRichKernel);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  auto r = safety::RunSafetyCompiler(**m);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(m).value();
}

TEST(TypeCheckerTest, AcceptsCompilerOutput) {
  auto m = CompiledModule();
  TypeCheckResult result = TypeCheckModule(*m);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

TEST(TypeCheckerTest, AcceptsUnannotatedModules) {
  auto m = vir::ParseModule(kRichKernel);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(TypeCheckModule(**m).ok);
}

TEST(TypeCheckerTest, RejectsUndeclaredPool) {
  auto m = CompiledModule();
  vir::Function* fn = m->GetFunction("read_size");
  m->AnnotateValue(fn->arg(0), "MP_undeclared");
  EXPECT_FALSE(TypeCheckModule(*m).ok);
}

TEST(TypeCheckerTest, CollectAllGathersMultipleErrors) {
  auto m = CompiledModule();
  ASSERT_TRUE(InjectBug(*m, BugKind::kWrongAlias, 1).ok());
  ASSERT_TRUE(InjectBug(*m, BugKind::kFalseTypeHomogeneity, 2).ok());
  TypeCheckOptions options;
  options.collect_all = true;
  TypeCheckResult result = TypeCheckModule(*m, options);
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.errors.size(), 2u);
}

// The Section 5 experiment: 4 bug kinds x 5 seeds = 20 injected pointer
// analysis bugs; the type checker must catch every one of them.
class InjectionTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(InjectionTest, VerifierCatchesInjectedBug) {
  auto [kind_index, seed] = GetParam();
  BugKind kind = static_cast<BugKind>(kind_index);
  auto m = CompiledModule();
  ASSERT_TRUE(TypeCheckModule(*m).ok);
  Status injected = InjectBug(*m, kind, seed);
  ASSERT_TRUE(injected.ok())
      << BugKindName(kind) << ": " << injected.ToString();
  TypeCheckResult result = TypeCheckModule(*m);
  EXPECT_FALSE(result.ok) << "verifier missed " << BugKindName(kind)
                          << " with seed " << seed << "\n"
                          << vir::PrintModule(*m);
}

INSTANTIATE_TEST_SUITE_P(
    TwentyBugs, InjectionTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// A deleted run-time check (a check insertion or elimination bug) is the
// fifth kind; rule R8 must catch each instance.
INSTANTIATE_TEST_SUITE_P(
    DroppedChecks, InjectionTest,
    ::testing::Combine(::testing::Values(4),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// --- Rule R8 ------------------------------------------------------------------

// A byte loop as the check-elimination pass leaves it: the preheader bounds
// [buf, buf + umax(len,1) - 1] once, and the loop body carries no check.
constexpr const char* kCoveredLoop = R"(
module "r8"
metapool MP1 complete
declare void @helper()

define void @zero(i8* %buf !MP1, i64 %len) {
entry:
  %empty = icmp eq i64 %len, 0
  br i1 %empty, label %done, label %pre
pre:
  %z = icmp eq i64 %len, 0
  %m = select i1 %z, i64 1, i64 %len
  %k = sub i64 %m, 1
  %last = getelementptr i8* %buf, i64 %k !MP1
  call void @sva.boundscheck(%sva.metapool* @MP1, i8* %buf, i8* %last)
  %end = getelementptr i8* %last, i64 1 !MP1
  call void @sva.boundscheck.direct(i8* %buf, i8* %last, i8* %end)
  br label %loop
loop:
  %i = phi i64 [ 0, %pre ], [ %i2, %loop ]
  %slot = getelementptr i8* %buf, i64 %i !MP1
  store i8 0, i8* %slot
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, %len
  br i1 %more, label %loop, label %done
done:
  ret void
}
)";

// kCoveredLoop with each `from` replaced by its `to` (each must occur).
std::string CoveredLoopWith(
    std::vector<std::pair<std::string, std::string>> edits) {
  std::string text = kCoveredLoop;
  for (const auto& [from, to] : edits) {
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) {
      text.replace(pos, from.size(), to);
    }
  }
  return text;
}

// The first R8 error of `text` ("" if it type-checks).
std::string R8Error(const std::string& text) {
  auto m = vir::ParseModule(text);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  if (!m.ok()) {
    return "parse error";
  }
  TypeCheckResult result = TypeCheckModule(**m);
  return result.ok ? "" : result.errors.front();
}

TEST(TypeCheckerR8Test, AcceptsARangeCheckedCountedLoop) {
  EXPECT_EQ(R8Error(kCoveredLoop), "");
}

TEST(TypeCheckerR8Test, RejectsACoveredLoopWithASecondExit) {
  std::string text = CoveredLoopWith(
      {{"[ %i2, %loop ]", "[ %i2, %latch ]"},
       {"  store i8 0, i8* %slot\n",
        "  store i8 0, i8* %slot\n  %quit = icmp eq i64 %i, 5\n"
        "  br i1 %quit, label %done, label %latch\nlatch:\n"}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsACoveredLoopWhoseBodyCalls) {
  std::string text = CoveredLoopWith(
      {{"  store i8 0, i8* %slot\n",
        "  store i8 0, i8* %slot\n  call void @helper()\n"}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsACoveredLoopWhoseBoundChangesInTheLoop) {
  std::string text = CoveredLoopWith(
      {{"  %more = icmp ult i64 %i2, %len\n",
        "  %grow = add i64 %len, %i\n  %more = icmp ult i64 %i2, %grow\n"}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsARangeCheckOverAnIncompletePool) {
  std::string text =
      CoveredLoopWith({{"metapool MP1 complete", "metapool MP1"}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsARangeCheckOutsideThePreheader) {
  // The same checks one block early, where the zero-trip guard branches.
  const std::string checks =
      "  %z = icmp eq i64 %len, 0\n"
      "  %m = select i1 %z, i64 1, i64 %len\n"
      "  %k = sub i64 %m, 1\n"
      "  %last = getelementptr i8* %buf, i64 %k !MP1\n"
      "  call void @sva.boundscheck(%sva.metapool* @MP1, i8* %buf, "
      "i8* %last)\n"
      "  %end = getelementptr i8* %last, i64 1 !MP1\n"
      "  call void @sva.boundscheck.direct(i8* %buf, i8* %last, i8* %end)\n";
  std::string text =
      CoveredLoopWith({{checks, ""}, {"entry:\n", "entry:\n" + checks}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsARangeCheckWithoutItsOrderGuard) {
  // Without base <= last, a length that wraps the address space could put
  // `last` below `buf` inside the same object.
  std::string text = CoveredLoopWith(
      {{"  call void @sva.boundscheck.direct(i8* %buf, i8* %last, "
        "i8* %end)\n",
        ""}});
  EXPECT_NE(R8Error(text).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(text);
}

TEST(TypeCheckerR8Test, RejectsAWideStrideOverARunTimeBound) {
  // k * 4 can wrap for a run-time bound, so the range check cannot stand
  // in for the per-element checks; for a constant bound it can.
  constexpr const char* kWords = R"(
module "words"
metapool MP1 complete

define void @zero(i32* %buf !MP1, i64 %len) {
entry:
  %z = icmp eq i64 BOUND, 0
  %m = select i1 %z, i64 1, i64 BOUND
  %k = sub i64 %m, 1
  %last = getelementptr i32* %buf, i64 %k !MP1
  %b8 = bitcast i32* %buf to i8* !MP1
  %l8 = bitcast i32* %last to i8* !MP1
  call void @sva.boundscheck(%sva.metapool* @MP1, i8* %b8, i8* %l8)
  %end = getelementptr i8* %l8, i64 1 !MP1
  call void @sva.boundscheck.direct(i8* %b8, i8* %l8, i8* %end)
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %slot = getelementptr i32* %buf, i64 %i !MP1
  store i32 0, i32* %slot
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, BOUND
  br i1 %more, label %loop, label %done
done:
  ret void
}
)";
  auto with_bound = [&](const std::string& bound) {
    std::string text = kWords;
    for (size_t pos; (pos = text.find("BOUND")) != std::string::npos;) {
      text.replace(pos, 5, bound);
    }
    return text;
  };
  EXPECT_NE(R8Error(with_bound("%len")).find("R8: getelementptr %slot"),
            std::string::npos)
      << R8Error(with_bound("%len"));
  EXPECT_EQ(R8Error(with_bound("16")), "");
}

TEST(TypeCheckerR8Test, RejectsADirectCheckWhoseEndIsNotTheRegisteredSize) {
  constexpr const char* kRing = R"(
module "ring"
metapool MP1 complete
declare i8* @kmalloc(i64)

define void @put(i64 %index) {
entry:
  %ring = call i8* @kmalloc(i64 64) !MP1
  call void @pchk.reg.obj(%sva.metapool* @MP1, i8* %ring, i64 64)
  %slot = getelementptr i8* %ring, i64 %index !MP1
  %end = getelementptr i8* %ring, i64 64 !MP1
  call void @sva.boundscheck.direct(i8* %ring, i8* %slot, i8* %end)
  call void @sva.lscheck(%sva.metapool* @MP1, i8* %slot)
  store i8 1, i8* %slot
  ret void
}
)";
  EXPECT_EQ(R8Error(kRing), "");
  std::string wide = kRing;
  wide.replace(wide.find("i8* %ring, i64 64 !MP1"), 22,
               "i8* %ring, i64 4096 !MP1");
  EXPECT_NE(R8Error(wide).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(wide);
}

TEST(TypeCheckerR8Test, ACheckOfTheWrongArityIsNoCheck) {
  // Untrusted bytecode may declare a check intrinsic with any signature;
  // R8 must neither count such a call nor read operands it lacks.
  constexpr const char* kShort = R"(
module "arity"
metapool MP1 complete
declare void @sva.boundscheck.direct(i8*, i8*)

define void @f(i8* %buf !MP1, i64 %i) {
entry:
  %slot = getelementptr i8* %buf, i64 %i !MP1
  call void @sva.boundscheck.direct(i8* %buf, i8* %slot)
  store i8 0, i8* %slot
  ret void
}
)";
  EXPECT_NE(R8Error(kShort).find("R8: getelementptr %slot"), std::string::npos)
      << R8Error(kShort);
}

TEST(TypeCheckerR8Test, RejectsAnUncheckedIndirectCall) {
  constexpr const char* kIndirect = R"(
module "icall"
metapool MP1 complete
global @handler : i64 (i64)* !MP1

define i64 @dispatch(i64 %x) {
entry:
  %h = bitcast i64 (i64)** @handler to i8* !MP1
  call void @sva.lscheck(%sva.metapool* @MP1, i8* %h)
  %fp = load i64 (i64)*, i64 (i64)** @handler
  %r = call i64 %fp(i64 %x)
  ret i64 %r
}
)";
  EXPECT_NE(R8Error(kIndirect).find("R8: indirect call through %fp"),
            std::string::npos)
      << R8Error(kIndirect);
}

// Every check the safety compiler leaves in the kernel corpus is needed:
// deleting any one of them makes R8 reject the module.
TEST(TypeCheckerR8Test, EveryCheckInTheCompiledCorpusIsNeeded) {
  auto compile = [] {
    auto m = vir::ParseModule(corpus::KernelCorpusText(true));
    EXPECT_TRUE(m.ok());
    safety::SafetyCompilerOptions options;
    options.analysis = corpus::CorpusConfig(true);
    EXPECT_TRUE(safety::RunSafetyCompiler(**m, options).ok());
    return std::move(m).value();
  };
  auto checks_of = [](const vir::Module& m) {
    std::vector<const vir::Instruction*> out;
    for (const auto& fn : m.functions()) {
      for (const auto& bb : fn->blocks()) {
        for (const auto& inst : bb->instructions()) {
          vir::Intrinsic which = vir::IntrinsicOf(*inst);
          if (which == vir::Intrinsic::kBoundsCheck ||
              which == vir::Intrinsic::kBoundsCheckDirect ||
              which == vir::Intrinsic::kLSCheck ||
              which == vir::Intrinsic::kIndirectCheck) {
            out.push_back(inst.get());
          }
        }
      }
    }
    return out;
  };
  auto clean = compile();
  ASSERT_TRUE(TypeCheckModule(*clean).ok);
  const size_t n = checks_of(*clean).size();
  ASSERT_GT(n, 10u);
  for (size_t i = 0; i < n; ++i) {
    auto m = compile();
    const vir::Instruction* victim = checks_of(*m)[i];
    victim->parent()->Remove(victim);
    EXPECT_FALSE(TypeCheckModule(*m).ok) << "check " << i << " of " << n;
  }
}


// The Section 9 extension: a security policy (information flow) encoded as
// a metapool type qualifier and enforced by the same local typing rules.
TEST(TypeCheckerTest, InformationFlowQualifier) {
  constexpr const char* kFlow = R"(
module "flow"
%key = type { i64, i64 }

metapool MPsecret th %key complete classified
metapool MPsbox complete classified
metapool MPpub complete

global @key_slot : %key* !MPsbox
global @log_slot : %key* !MPpub

define void @ok(%key* %k !MPsecret) {
entry:
  %c = bitcast %key** @key_slot to i8* !MPsbox
  call void @sva.lscheck(%sva.metapool* @MPsbox, i8* %c)
  store %key* %k, %key** @key_slot
  ret void
}
)";
  auto m = vir::ParseModule(kFlow);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Pointee annotations: key_slot holds MPsecret pointers.
  vir::GlobalVariable* key_slot = (*m)->GetGlobal("key_slot");
  vir::GlobalVariable* log_slot = (*m)->GetGlobal("log_slot");
  ASSERT_NE(key_slot, nullptr);
  ASSERT_NE(log_slot, nullptr);
  EXPECT_TRUE((*m)->FindMetapool("MPsecret")->classified);
  EXPECT_FALSE((*m)->FindMetapool("MPpub")->classified);
  EXPECT_TRUE(TypeCheckModule(**m).ok);

  // Now add a leak: the classified key pointer stored through a public
  // pool's object.
  constexpr const char* kLeak = R"(
module "leak"
%key = type { i64, i64 }

metapool MPsecret th %key complete classified
metapool MPpub complete

global @log_slot : %key* !MPpub

define void @leak(%key* %k !MPsecret) {
entry:
  store %key* %k, %key** @log_slot
  ret void
}
)";
  auto leak = vir::ParseModule(kLeak);
  ASSERT_TRUE(leak.ok()) << leak.status().ToString();
  TypeCheckResult result = TypeCheckModule(**leak);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.errors.front().find("information-flow"),
            std::string::npos)
      << result.errors.front();
}

TEST(TypeCheckerTest, ClassifiedQualifierSurvivesBytecode) {
  constexpr const char* kFlow = R"(
module "flowbc"
metapool MPsecret classified
define void @nop() {
entry:
  ret void
}
)";
  auto m = vir::ParseModule(kFlow);
  ASSERT_TRUE(m.ok());
  auto round = vir::ReadBytecode(vir::WriteBytecode(**m));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const vir::MetapoolDecl* decl = (*round)->FindMetapool("MPsecret");
  ASSERT_NE(decl, nullptr);
  EXPECT_TRUE(decl->classified);
}

}  // namespace
}  // namespace sva::verifier
