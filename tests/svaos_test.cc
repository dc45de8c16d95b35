#include <gtest/gtest.h>

#include "src/svaos/svaos.h"

namespace sva::svaos {
namespace {

class SvaOsTest : public ::testing::Test {
 protected:
  hw::Machine machine_;
  SvaOS os_{machine_};
};

TEST_F(SvaOsTest, IntegerStateRoundTrip) {
  machine_.cpu().control().pc = 0x1234;
  machine_.cpu().control().regs[3] = 99;
  SavedIntegerState saved;
  os_.SaveIntegerState(&saved);

  machine_.cpu().control().pc = 0x9999;
  machine_.cpu().control().regs[3] = 0;
  ASSERT_TRUE(os_.LoadIntegerState(saved).ok());
  EXPECT_EQ(machine_.cpu().control().pc, 0x1234u);
  EXPECT_EQ(machine_.cpu().control().regs[3], 99u);
  EXPECT_EQ(os_.stats().save_integer, 1u);
  EXPECT_EQ(os_.stats().load_integer, 1u);
}

TEST_F(SvaOsTest, LoadingUnsavedStateFails) {
  SavedIntegerState never_saved;
  EXPECT_FALSE(os_.LoadIntegerState(never_saved).ok());
  SavedFpState never_saved_fp;
  EXPECT_FALSE(os_.LoadFpState(never_saved_fp).ok());
}

TEST_F(SvaOsTest, LazyFpSave) {
  SavedFpState fp;
  // FP untouched: the lazy save is skipped (critical-path optimization of
  // Table 1).
  EXPECT_FALSE(os_.SaveFpState(&fp, /*always=*/false));
  EXPECT_EQ(os_.stats().save_fp_skipped, 1u);
  // Unconditional save works regardless.
  EXPECT_TRUE(os_.SaveFpState(&fp, /*always=*/true));
  // Dirty FP state is saved even lazily.
  machine_.cpu().WriteFpRegister(1, 2.5);
  SavedFpState fp2;
  EXPECT_TRUE(os_.SaveFpState(&fp2, /*always=*/false));
  EXPECT_EQ(fp2.fp.regs[1], 2.5);
  // Saving clears dirtiness; a further lazy save skips again.
  SavedFpState fp3;
  EXPECT_FALSE(os_.SaveFpState(&fp3, /*always=*/false));
  ASSERT_TRUE(os_.LoadFpState(fp2).ok());
  EXPECT_EQ(machine_.cpu().fp().regs[1], 2.5);
}

TEST_F(SvaOsTest, SyscallDispatchThroughInterruptContext) {
  uint64_t seen_arg = 0;
  bool was_privileged = true;
  ASSERT_TRUE(os_.RegisterSyscall(
                   7,
                   [&](const SyscallArgs& call) -> Result<uint64_t> {
                     seen_arg = call.args[0];
                     was_privileged = os_.WasPrivileged(call.icontext);
                     return call.args[0] * 2;
                   })
                  .ok());
  // Simulate a user process trapping in.
  machine_.cpu().control().privilege = hw::Privilege::kUser;
  auto r = os_.Syscall(7, {21, 0, 0, 0, 0, 0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, 42u);
  EXPECT_EQ(seen_arg, 21u);
  EXPECT_FALSE(was_privileged);  // Interrupted context was user mode.
  // Privilege restored after return.
  EXPECT_EQ(machine_.cpu().control().privilege, hw::Privilege::kUser);
  EXPECT_EQ(os_.stats().syscalls_dispatched, 1u);
  EXPECT_EQ(os_.stats().icontext_created, 1u);
  // Unregistered syscalls fail.
  EXPECT_FALSE(os_.Syscall(99, {}).ok());
}

TEST_F(SvaOsTest, SyscallNumbersOutsideTheTableAreNotFound) {
  auto handler = [](const SyscallArgs&) -> Result<uint64_t> { return 5; };
  ASSERT_TRUE(os_.RegisterSyscall(kNumSyscalls - 1, handler).ok());
  EXPECT_EQ(os_.RegisterSyscall(kNumSyscalls, handler).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(os_.HasSyscall(kNumSyscalls));
  auto last = os_.Syscall(kNumSyscalls - 1, {});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 5u);
  for (uint64_t number : {uint64_t{0}, kNumSyscalls, kNumSyscalls + 5,
                          UINT64_MAX}) {
    auto r = os_.Syscall(number, {});
    ASSERT_FALSE(r.ok()) << number;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << number;
  }
  // A rejected call never entered the kernel.
  EXPECT_EQ(os_.stats().syscalls_dispatched, 1u);
}

TEST_F(SvaOsTest, InternalSyscallSeesPrivilegedContext) {
  bool was_privileged = false;
  ASSERT_TRUE(os_.RegisterSyscall(
                   8,
                   [&](const SyscallArgs& call) -> Result<uint64_t> {
                     was_privileged = os_.WasPrivileged(call.icontext);
                     return 0;
                   })
                  .ok());
  machine_.cpu().control().privilege = hw::Privilege::kKernel;
  ASSERT_TRUE(os_.Syscall(8, {}).ok());
  EXPECT_TRUE(was_privileged);
}

TEST_F(SvaOsTest, IPushFunctionRunsOnResume) {
  // The signal-dispatch mechanism: a handler pushed onto the interrupted
  // context runs when the context resumes, with its argument.
  std::vector<uint64_t> delivered;
  ASSERT_TRUE(os_.RegisterSyscall(
                   9,
                   [&](const SyscallArgs& call) -> Result<uint64_t> {
                     os_.IPushFunction(
                         call.icontext,
                         [&](uint64_t sig) { delivered.push_back(sig); }, 11);
                     os_.IPushFunction(
                         call.icontext,
                         [&](uint64_t sig) { delivered.push_back(sig); }, 17);
                     return 0;
                   })
                  .ok());
  ASSERT_TRUE(os_.Syscall(9, {}).ok());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 11u);
  EXPECT_EQ(delivered[1], 17u);
  EXPECT_EQ(os_.stats().ipush_function, 2u);
}

TEST_F(SvaOsTest, IContextSaveLoadCommit) {
  ASSERT_TRUE(os_.RegisterSyscall(
                   10,
                   [&](const SyscallArgs& call) -> Result<uint64_t> {
                     SavedIntegerState state;
                     os_.IContextSave(call.icontext, &state);
                     // Restart-the-syscall idiom: rewind the saved pc.
                     state.control.pc -= 2;
                     EXPECT_TRUE(os_.IContextLoad(call.icontext, state).ok());
                     os_.IContextCommit(call.icontext);
                     return 0;
                   })
                  .ok());
  machine_.cpu().control().pc = 0x1000;
  ASSERT_TRUE(os_.Syscall(10, {}).ok());
  // The modified context was restored on return.
  EXPECT_EQ(machine_.cpu().control().pc, 0x0FFEu);
  EXPECT_EQ(os_.stats().icontext_committed, 1u);
}

TEST_F(SvaOsTest, InterruptVectorDispatch) {
  int fired = 0;
  ASSERT_TRUE(
      os_.RegisterInterrupt(32, [&](InterruptContext*) { ++fired; }).ok());
  ASSERT_TRUE(os_.RaiseInterrupt(32).ok());
  ASSERT_TRUE(os_.RaiseInterrupt(32).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(os_.RaiseInterrupt(33).ok());
  EXPECT_FALSE(os_.RegisterInterrupt(4096, [](InterruptContext*) {}).ok());
}

TEST_F(SvaOsTest, MmuMediation) {
  ASSERT_TRUE(os_.MmuMap(0x10000, 0x2000,
                         hw::kPtePresent | hw::kPteWritable)
                  .ok());
  EXPECT_TRUE(machine_.mmu().IsMapped(0x10000));
  ASSERT_TRUE(os_.MmuUnmap(0x10000).ok());
  // The kernel cannot request SVM-reserved mappings for itself.
  EXPECT_FALSE(
      os_.MmuMap(0x10000, 0x2000, hw::kPteSvmReserved).ok());
  // SVM reserves its own page; the kernel cannot take it over.
  ASSERT_TRUE(os_.ReserveSvmPage(0x70000, 0x7000).ok());
  EXPECT_FALSE(os_.MmuMap(0x70000, 0x8000, hw::kPteWritable).ok());
  EXPECT_FALSE(os_.MmuUnmap(0x70000).ok());
  EXPECT_GE(os_.stats().mmu_ops, 4u);
}

TEST_F(SvaOsTest, IoOperations) {
  ASSERT_TRUE(os_.IoWrite(hw::Machine::kPortConsole, 'x').ok());
  EXPECT_EQ(machine_.console().output(), "x");
  ASSERT_TRUE(os_.IoWrite(hw::Machine::kPortTimer, 3).ok());
  EXPECT_EQ(*os_.IoRead(hw::Machine::kPortTimer), 3u);
  EXPECT_EQ(os_.stats().io_ops, 3u);
}

TEST_F(SvaOsTest, NestedInterruptContexts) {
  // A syscall handler that itself performs an internal syscall: contexts
  // nest and unwind in order.
  std::vector<std::string> trace;
  ASSERT_TRUE(os_.RegisterSyscall(
                   1,
                   [&](const SyscallArgs&) -> Result<uint64_t> {
                     trace.push_back("outer-enter");
                     auto inner = os_.Syscall(2, {});
                     EXPECT_TRUE(inner.ok());
                     trace.push_back("outer-exit");
                     return 0;
                   })
                  .ok());
  ASSERT_TRUE(os_.RegisterSyscall(
                   2,
                   [&](const SyscallArgs&) -> Result<uint64_t> {
                     trace.push_back("inner");
                     return 0;
                   })
                  .ok());
  ASSERT_TRUE(os_.Syscall(1, {}).ok());
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "outer-enter");
  EXPECT_EQ(trace[1], "inner");
  EXPECT_EQ(trace[2], "outer-exit");
  EXPECT_EQ(os_.stats().icontext_created, 2u);
}

}  // namespace
}  // namespace sva::svaos
