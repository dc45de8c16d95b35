#include <gtest/gtest.h>

#include "src/support/strings.h"
#include "src/vir/builder.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace sva::vir {
namespace {

TEST(StructuralVerifierTest, AcceptsWellFormedModule) {
  auto m = ParseModule(R"(
module "ok"
define i32 @f(i32 %x) {
entry:
  %y = add i32 %x, 1
  ret i32 %y
}
)");
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(VerifyModule(**m).ok());
}

TEST(StructuralVerifierTest, RejectsMissingTerminator) {
  Module m("bad");
  TypeContext& t = m.types();
  Function* fn = m.CreateFunction("f", t.FunctionTy(t.VoidTy(), {}), false);
  fn->CreateBlock("entry");  // Empty block, no terminator.
  Status s = VerifyModule(m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no terminator"), std::string::npos);
}

TEST(StructuralVerifierTest, RejectsUseBeforeDef) {
  Module m("bad");
  TypeContext& t = m.types();
  Function* fn = m.CreateFunction("f", t.FunctionTy(t.I32(), {}), false);
  BasicBlock* bb = fn->CreateBlock("entry");
  IRBuilder b(m);
  b.SetInsertPoint(bb);
  // Build %a = add %b, 1; %b = add 1, 1; ret %a  (use before def).
  Value* one = m.GetInt32(1);
  Value* b_val = b.CreateAdd(one, one, "b");
  Value* a_val = b.CreateAdd(b_val, one, "a");
  b.CreateRet(a_val);
  // Manually swap the first two instructions to create the violation.
  // (Rebuild in wrong order instead: construct a new function.)
  Function* fn2 = m.CreateFunction("g", t.FunctionTy(t.I32(), {}), false);
  BasicBlock* bb2 = fn2->CreateBlock("entry");
  auto* add_b = new BinaryInst(Opcode::kAdd, one, one, "b");
  auto* add_a = new BinaryInst(Opcode::kAdd, add_b, one, "a");
  bb2->Append(std::unique_ptr<Instruction>(add_a));
  bb2->Append(std::unique_ptr<Instruction>(add_b));
  bb2->Append(std::make_unique<RetInst>(t.VoidTy(), add_a));
  Status s = VerifyFunction(m, *fn2);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("precede"), std::string::npos);
  EXPECT_TRUE(VerifyFunction(m, *fn).ok());
}

TEST(StructuralVerifierTest, RejectsDefNotDominatingUse) {
  // %v defined only on one path but used after the merge.
  auto m = ParseModule(R"(
module "bad"
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %v = add i32 1, 2
  br label %merge
b:
  br label %merge
merge:
  ret i32 %v
}
)");
  ASSERT_TRUE(m.ok());
  Status s = VerifyModule(**m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dominate"), std::string::npos);
}

TEST(StructuralVerifierTest, AcceptsPhiMergeOfBothPaths) {
  auto m = ParseModule(R"(
module "ok"
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %v = add i32 1, 2
  br label %merge
b:
  %w = add i32 3, 4
  br label %merge
merge:
  %r = phi i32 [ %v, %a ], [ %w, %b ]
  ret i32 %r
}
)");
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(VerifyModule(**m).ok()) << VerifyModule(**m).ToString();
}

TEST(StructuralVerifierTest, RejectsPhiMissingPredecessor) {
  auto m = ParseModule(R"(
module "bad"
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %merge
a:
  %v = add i32 1, 2
  br label %merge
merge:
  %r = phi i32 [ %v, %a ]
  ret i32 %r
}
)");
  ASSERT_TRUE(m.ok());
  Status s = VerifyModule(**m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("predecessors"), std::string::npos);
}

TEST(StructuralVerifierTest, RejectsCallArityMismatch) {
  auto m = ParseModule(R"(
module "bad"
declare i32 @two(i32, i32)
define i32 @f() {
entry:
  %r = call i32 @two(i32 1)
  ret i32 %r
}
)");
  ASSERT_TRUE(m.ok());
  Status s = VerifyModule(**m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("arity"), std::string::npos);
}

TEST(StructuralVerifierTest, RejectsRetTypeMismatch) {
  auto m = ParseModule(R"(
module "bad"
define i64 @f() {
entry:
  ret i32 1
}
)");
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(VerifyModule(**m).ok());
}

// --- Shapes the threaded tier cannot lower ----------------------------------
//
// Every function VerifyModule accepts runs on the threaded tier, so each
// shape its decoder refuses is a verification failure instead.

// Parses `text` and expects VerifyModule to reject it with a message that
// contains `fragment`.
void ExpectRejected(const std::string& text, const std::string& fragment) {
  auto m = ParseModule(text);
  ASSERT_TRUE(m.ok()) << m.status().ToString() << "\n" << text;
  Status s = VerifyModule(**m);
  ASSERT_FALSE(s.ok()) << text;
  EXPECT_NE(s.message().find(fragment), std::string::npos)
      << s.message() << "\n" << text;
}

// A module whose @f takes an i64, an f64 and an i8* and runs `body` in its
// entry block before returning.
std::string WithBody(const std::string& body) {
  return "module \"bad\"\ndefine void @f(i64 %i, f64 %x, i8* %p) {\nentry:\n" +
         body + "\n  ret void\n}\n";
}

TEST(StructuralVerifierTest, RejectsEntryPhiWithBackEdge) {
  ExpectRejected(R"(
module "bad"
define i64 @main(i64 %n) {
entry:
  %i = phi i64 [ 0, %loop ]
  br label %loop
loop:
  %i2 = add i64 %i, 1
  %done = icmp uge i64 %i2, %n
  br i1 %done, label %exit, label %entry
exit:
  ret i64 %i2
}
)",
                 "phi in entry block");
}

TEST(StructuralVerifierTest, RejectsBranchBackToEntry) {
  ExpectRejected(R"(
module "bad"
define void @f(i1 %c) {
entry:
  br label %loop
loop:
  br i1 %c, label %entry, label %exit
exit:
  ret void
}
)",
                 "entry block has predecessors");
}

TEST(StructuralVerifierTest, RejectsPhiInEntryWithoutPredecessors) {
  Module m("bad");
  TypeContext& t = m.types();
  Function* fn = m.CreateFunction("f", t.FunctionTy(t.VoidTy(), {}), false);
  BasicBlock* entry = fn->CreateBlock("entry");
  entry->Append(std::make_unique<PhiInst>(t.I64(), "p"));
  entry->Append(std::make_unique<RetInst>(t.VoidTy(), nullptr));
  Status s = VerifyModule(m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("phi in entry block"), std::string::npos)
      << s.message();
}

TEST(StructuralVerifierTest, RejectsBitcastOfFloatBits) {
  ExpectRejected(R"(
module "bad"
define i64 @main(i64 %x) {
entry:
  %f = sitofp i64 %x to f64
  %bits = bitcast f64 %f to i64
  ret i64 %bits
}
)",
                 "bitcast from f64 to i64");
}

TEST(StructuralVerifierTest, RejectsCastsBetweenTheWrongClasses) {
  for (const char* cast :
       {"%r = trunc f64 %x to i32", "%r = zext i8* %p to i64",
        "%r = sext f64 %x to i64", "%r = ptrtoint i64 %i to i64",
        "%r = inttoptr i8* %p to i8*", "%r = bitcast i64 %i to f64",
        "%r = sitofp f64 %x to f64", "%r = fptosi i64 %i to i64"}) {
    std::string op(cast + 5, std::string(cast + 5).find(' '));
    ExpectRejected(WithBody(std::string("  ") + cast), op + " from");
  }
}

TEST(StructuralVerifierTest, RejectsComparesOnTheWrongClass) {
  ExpectRejected(WithBody("  %r = icmp eq f64 %x, %x"), "icmp on f64");
  ExpectRejected(WithBody("  %r = fcmp slt i64 %i, %i"), "fcmp on i64");
}

TEST(StructuralVerifierTest, RejectsSelectArmOfAnotherType) {
  ExpectRejected(WithBody("  %c = icmp eq i64 %i, 0\n"
                          "  %r = select i1 %c, i64 %i, i8* %p"),
                 "select arm type mismatch");
  ExpectRejected(WithBody("  %r = select f64 %x, i64 %i, i64 %i"),
                 "select condition is not an integer");
}

TEST(StructuralVerifierTest, RejectsOperandsOfTheWrongClass) {
  ExpectRejected(WithBody("  %r = add f64 %x, %x"), "add on f64");
  ExpectRejected(WithBody("  %r = fadd i64 %i, %i"), "fadd on i64");
  ExpectRejected(WithBody("  free f64 %x"), "free of a non-pointer");
  ExpectRejected(WithBody("  %r = alloca i8, f64 %x"),
                 "alloca count is not an integer");
  ExpectRejected(WithBody("  %r = getelementptr i8* %p, f64 %x"),
                 "gep index is not an integer");
  ExpectRejected(WithBody("  %q = bitcast i8* %p to f64*\n"
                          "  %r = atomiclis f64* %q, 1.0"),
                 "atomiclis on f64");
  ExpectRejected(
      "module \"bad\"\ndefine void @f(f64 %x) {\nentry:\n"
      "  switch f64 %x, label %e, [ 0, label %e ]\ne:\n  ret void\n}\n",
      "switch condition is not an integer");
}

TEST(StructuralVerifierTest, RejectsMorePhisThanTheDecoderCounts) {
  Module m("bad");
  TypeContext& t = m.types();
  Function* fn = m.CreateFunction("f", t.FunctionTy(t.VoidTy(), {}), false);
  BasicBlock* entry = fn->CreateBlock("entry");
  BasicBlock* body = fn->CreateBlock("body");
  entry->Append(std::make_unique<BranchInst>(t.VoidTy(), body));
  for (size_t i = 0; i <= kMaxPhisPerBlock; ++i) {
    auto phi = std::make_unique<PhiInst>(t.I64(), StrCat("p", i));
    phi->AddIncoming(m.GetInt64(i), entry);
    body->Append(std::move(phi));
  }
  body->Append(std::make_unique<RetInst>(t.VoidTy(), nullptr));
  Status s = VerifyModule(m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("more than 65535 phis"), std::string::npos)
      << s.message();
}

TEST(StructuralVerifierTest, RejectsMoreDynamicGepIndicesThanTheDecoderCounts) {
  Module m("bad");
  TypeContext& t = m.types();
  const PointerType* i8p = t.PointerTo(t.I8());
  Function* fn =
      m.CreateFunction("f", t.FunctionTy(t.VoidTy(), {i8p, t.I64()}), false);
  BasicBlock* entry = fn->CreateBlock("entry");
  std::vector<Value*> indices(kMaxDynamicGepIndices + 1, fn->arg(1));
  entry->Append(std::make_unique<GetElementPtrInst>(i8p, fn->arg(0),
                                                    std::move(indices), "g"));
  entry->Append(std::make_unique<RetInst>(t.VoidTy(), nullptr));
  Status s = VerifyModule(m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("more than 65535 dynamic indices"),
            std::string::npos)
      << s.message();
}

TEST(DominatorTreeTest, DiamondDominance) {
  auto m = ParseModule(R"(
module "dom"
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  ret void
}
)");
  ASSERT_TRUE(m.ok());
  Function* fn = (*m)->GetFunction("f");
  DominatorTree dom(*fn);
  const BasicBlock* entry = fn->blocks()[0].get();
  const BasicBlock* a = fn->blocks()[1].get();
  const BasicBlock* b = fn->blocks()[2].get();
  const BasicBlock* merge = fn->blocks()[3].get();
  EXPECT_TRUE(dom.Dominates(entry, merge));
  EXPECT_TRUE(dom.Dominates(entry, a));
  EXPECT_FALSE(dom.Dominates(a, merge));
  EXPECT_FALSE(dom.Dominates(b, merge));
  EXPECT_TRUE(dom.Dominates(merge, merge));
  EXPECT_EQ(dom.ImmediateDominator(merge), entry);
  EXPECT_EQ(dom.ImmediateDominator(entry), nullptr);
}

TEST(DominatorTreeTest, UnreachableBlocksAreFlagged) {
  auto m = ParseModule(R"(
module "dom"
define void @f() {
entry:
  ret void
dead:
  ret void
}
)");
  ASSERT_TRUE(m.ok());
  Function* fn = (*m)->GetFunction("f");
  DominatorTree dom(*fn);
  EXPECT_TRUE(dom.IsReachable(fn->blocks()[0].get()));
  EXPECT_FALSE(dom.IsReachable(fn->blocks()[1].get()));
}

}  // namespace
}  // namespace sva::vir
