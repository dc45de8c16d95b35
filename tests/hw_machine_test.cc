#include <gtest/gtest.h>

#include <fstream>
#include <new>
#include <string>

#include "src/hw/machine.h"

namespace sva::hw {
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

TEST(PhysicalMemoryTest, ReadWriteWidths) {
  PhysicalMemory mem(1 << 16);
  ASSERT_TRUE(mem.Write(0x100, 8, 0x1122334455667788ull).ok());
  EXPECT_EQ(*mem.Read(0x100, 8), 0x1122334455667788ull);
  EXPECT_EQ(*mem.Read(0x100, 4), 0x55667788ull);
  EXPECT_EQ(*mem.Read(0x100, 2), 0x7788ull);
  EXPECT_EQ(*mem.Read(0x100, 1), 0x88ull);
  EXPECT_FALSE(mem.Read(1 << 16, 1).ok());
  EXPECT_FALSE(mem.Write((1 << 16) - 3, 8, 0).ok());
}

TEST(PhysicalMemoryTest, CopyAndFill) {
  PhysicalMemory mem(1 << 16);
  ASSERT_TRUE(mem.Fill(0x200, 0xAB, 64).ok());
  ASSERT_TRUE(mem.Copy(0x400, 0x200, 64).ok());
  EXPECT_EQ(*mem.Read(0x43F, 1), 0xABull);
  EXPECT_FALSE(mem.Copy(0x400, (1 << 16) - 8, 64).ok());
}

TEST(PhysicalMemoryTest, GuestMemoryAndDiskAreLazilyZeroFilled) {
  const long before = VmRssKb();
  ASSERT_GT(before, 0);
  Machine machine(1ull << 30);
  EXPECT_LT(VmRssKb() - before, 16 * 1024) << "a 1 GiB guest was committed";
  EXPECT_EQ(machine.memory().size(), 1ull << 30);
  EXPECT_EQ(*machine.memory().Read((1ull << 30) - 8, 8), 0u);
  ASSERT_TRUE(machine.memory().Write(512ull << 20, 8, 0x5A5A).ok());
  EXPECT_EQ(*machine.memory().Read(512ull << 20, 8), 0x5A5Au);
  uint8_t sector[BlockDevice::kSectorSize] = {1};
  ASSERT_TRUE(machine.disk().ReadSector(machine.disk().num_sectors() - 1,
                                        sector).ok());
  EXPECT_EQ(sector[0], 0u);
}

TEST(PhysicalMemoryTest, MemoryThatCannotBeMappedFailsConstruction) {
  // Past any host address space: the mapping fails, and the device must
  // not come up empty.
  EXPECT_THROW(PhysicalMemory(uint64_t{1} << 62), std::bad_alloc);
  EXPECT_THROW(BlockDevice(uint64_t{1} << 53), std::bad_alloc);
  PhysicalMemory empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Read(0, 1).ok());
}

TEST(PhysicalMemoryTest, ContainsRejectsWrappingRanges) {
  PhysicalMemory mem(1 << 16);
  EXPECT_TRUE(mem.Contains(0, 1 << 16));
  EXPECT_TRUE(mem.Contains(1 << 16, 0));
  EXPECT_FALSE(mem.Contains(1, 1 << 16));
  EXPECT_FALSE(mem.Contains(8, ~uint64_t{0} - 4));
  EXPECT_FALSE(mem.Copy(0, 8, ~uint64_t{0} - 4).ok());
}

TEST(MmuTest, MapTranslateUnmap) {
  Mmu mmu;
  ASSERT_TRUE(mmu.Map(0x10000, 0x3000, kPteWritable).ok());
  auto pa = mmu.Translate(0x10123, /*write=*/false, Privilege::kKernel);
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(*pa, 0x3123u);
  EXPECT_TRUE(mmu.IsMapped(0x10000));
  ASSERT_TRUE(mmu.Unmap(0x10000).ok());
  EXPECT_FALSE(mmu.Translate(0x10123, false, Privilege::kKernel).ok());
  EXPECT_FALSE(mmu.Unmap(0x10000).ok());
}

TEST(MmuTest, RejectsUnalignedAndFaults) {
  Mmu mmu;
  EXPECT_FALSE(mmu.Map(0x10001, 0x3000, 0).ok());
  EXPECT_FALSE(mmu.Map(0x10000, 0x3001, 0).ok());
  EXPECT_FALSE(mmu.Translate(0x99999, false, Privilege::kKernel).ok());
  EXPECT_GT(mmu.faults(), 0u);
}

TEST(MmuTest, PrivilegeEnforcement) {
  Mmu mmu;
  ASSERT_TRUE(mmu.Map(0x10000, 0x3000, kPteWritable).ok());  // Kernel page.
  ASSERT_TRUE(
      mmu.Map(0x20000, 0x4000, kPteWritable | kPteUser).ok());  // User page.
  EXPECT_TRUE(mmu.Translate(0x10000, false, Privilege::kKernel).ok());
  EXPECT_FALSE(mmu.Translate(0x10000, false, Privilege::kUser).ok());
  EXPECT_TRUE(mmu.Translate(0x20000, true, Privilege::kUser).ok());
}

TEST(MmuTest, ReadOnlyPages) {
  Mmu mmu;
  ASSERT_TRUE(mmu.Map(0x10000, 0x3000, kPteUser).ok());
  EXPECT_TRUE(mmu.Translate(0x10000, false, Privilege::kUser).ok());
  EXPECT_FALSE(mmu.Translate(0x10000, true, Privilege::kUser).ok());
}

TEST(MmuTest, SvmReservedPagesAreProtected) {
  Mmu mmu;
  ASSERT_TRUE(
      mmu.Map(0x50000, 0x5000, kPteWritable | kPteSvmReserved).ok());
  // The kernel cannot remap or unmap SVM pages.
  EXPECT_FALSE(mmu.Map(0x50000, 0x6000, kPteWritable).ok());
  EXPECT_FALSE(mmu.Unmap(0x50000).ok());
  // Only kernel-privilege (SVM) code touches them.
  EXPECT_FALSE(mmu.Translate(0x50000, false, Privilege::kUser).ok());
}

TEST(MmuTest, DoubleMapIsAlreadyExists) {
  Mmu mmu;
  ASSERT_TRUE(mmu.Map(0x10000, 0x3000, kPteWritable).ok());
  Status again = mmu.Map(0x10000, 0x4000, kPteWritable);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  // The original mapping is untouched by the failed attempt.
  EXPECT_EQ(*mmu.Translate(0x10000, false, Privilege::kKernel), 0x3000u);
  // Unmap, then the same vaddr maps fresh.
  ASSERT_TRUE(mmu.Unmap(0x10000).ok());
  ASSERT_TRUE(mmu.Map(0x10000, 0x4000, kPteWritable).ok());
  EXPECT_EQ(*mmu.Translate(0x10000, false, Privilege::kKernel), 0x4000u);
}

TEST(MmuTest, UnmapAndProtectOfUnmappedAreNotFound) {
  Mmu mmu;
  EXPECT_EQ(mmu.Unmap(0x77000).code(), StatusCode::kNotFound);
  EXPECT_EQ(mmu.Protect(Mmu::kKernelAsid, 0x77000, kPteWritable).code(),
            StatusCode::kNotFound);
}

TEST(MmuTest, FlagsRoundTripThroughLookupAndProtect) {
  Mmu mmu;
  const uint32_t flags = kPteWritable | kPteUser;
  ASSERT_TRUE(mmu.Map(0x20000, 0x5000, flags).ok());
  PageTableEntry pte;
  ASSERT_TRUE(mmu.Lookup(Mmu::kKernelAsid, 0x20000, &pte));
  EXPECT_EQ(pte.physical_page, 0x5000u / kPageSize);
  EXPECT_EQ(pte.flags, flags | kPtePresent);
  // Protect swaps the flags, keeps the frame (the COW downgrade shape).
  ASSERT_TRUE(
      mmu.Protect(Mmu::kKernelAsid, 0x20000, kPteUser | kPteCow).ok());
  ASSERT_TRUE(mmu.Lookup(Mmu::kKernelAsid, 0x20000, &pte));
  EXPECT_EQ(pte.physical_page, 0x5000u / kPageSize);
  EXPECT_EQ(pte.flags & kPteWritable, 0u);
  EXPECT_NE(pte.flags & kPteCow, 0u);
  EXPECT_NE(pte.flags & kPtePresent, 0u);
  // A COW entry refuses writes even though it is "mapped".
  EXPECT_FALSE(mmu.Translate(0x20000, true, Privilege::kUser).ok());
  EXPECT_TRUE(mmu.Translate(0x20000, false, Privilege::kUser).ok());
}

TEST(MmuTest, AddressSpacesAreIsolated) {
  Mmu mmu;
  auto a = mmu.CreateAddressSpace();
  auto b = mmu.CreateAddressSpace();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(mmu.Map(*a, 0x30000, 0x6000, kPteWritable | kPteUser).ok());
  EXPECT_TRUE(mmu.IsMapped(*a, 0x30000));
  EXPECT_FALSE(mmu.IsMapped(*b, 0x30000));
  EXPECT_FALSE(mmu.IsMapped(Mmu::kKernelAsid, 0x30000));
  // Same vaddr in the sibling space resolves to its own frame.
  ASSERT_TRUE(mmu.Map(*b, 0x30000, 0x7000, kPteWritable | kPteUser).ok());
  EXPECT_EQ(*mmu.Translate(*a, 0x30000, false, Privilege::kUser), 0x6000u);
  EXPECT_EQ(*mmu.Translate(*b, 0x30000, false, Privilege::kUser), 0x7000u);
  // Destroying a space drops its mappings and refuses further use.
  ASSERT_TRUE(mmu.DestroyAddressSpace(*a).ok());
  EXPECT_FALSE(mmu.Map(*a, 0x40000, 0x8000, kPteUser).ok());
  EXPECT_FALSE(mmu.DestroyAddressSpace(Mmu::kKernelAsid).ok());
}

TEST(MmuTest, EntriesSnapshotsOneSpace) {
  Mmu mmu;
  auto a = mmu.CreateAddressSpace();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mmu.Map(*a, 0x10000, 0x3000, kPteUser).ok());
  ASSERT_TRUE(mmu.Map(*a, 0x12000, 0x4000, kPteUser | kPteWritable).ok());
  ASSERT_TRUE(mmu.Map(0x999000, 0x5000, kPteWritable).ok());  // Kernel asid.
  auto entries = mmu.Entries(*a);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 0x10000u);
  EXPECT_EQ(entries[0].second.physical_page, 0x3000u / kPageSize);
  EXPECT_EQ(entries[1].first, 0x12000u);
}

TEST(MmuTest, FrameTypeDeclarations) {
  Mmu mmu;
  EXPECT_EQ(mmu.frame_type(0x3000), FrameType::kUnused);
  mmu.DeclareFrameType(0x3000, FrameType::kKernel);
  EXPECT_EQ(mmu.frame_type(0x3000), FrameType::kKernel);
  mmu.DeclareFrameType(0x3000, FrameType::kUnused);
  EXPECT_EQ(mmu.frame_type(0x3000), FrameType::kUnused);
  EXPECT_STREQ(FrameTypeName(FrameType::kPageTable), "page-table");
}

TEST(TlbTest, HitMissAndPermissionReplay) {
  Tlb tlb;
  PageTableEntry pte{0x3000, kPtePresent | kPteUser};
  PageTableEntry out;
  EXPECT_FALSE(tlb.Lookup(1, 0x10000, &out));
  tlb.Insert(1, 0x10000, pte);
  ASSERT_TRUE(tlb.Lookup(1, 0x10000, &out));
  EXPECT_EQ(out.physical_page, 0x3000u);
  // Same vpage, different asid: miss (entries are asid-tagged).
  EXPECT_FALSE(tlb.Lookup(2, 0x10000, &out));
  auto stats = tlb.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(TlbTest, InvalidationGranularities) {
  Tlb tlb;
  PageTableEntry pte{0x3000, kPtePresent};
  tlb.Insert(1, 0x10000, pte);
  tlb.Insert(1, 0x11000, pte);
  tlb.Insert(2, 0x10000, pte);
  PageTableEntry out;
  tlb.InvalidatePage(1, 0x10000);
  EXPECT_FALSE(tlb.Lookup(1, 0x10000, &out));
  EXPECT_TRUE(tlb.Lookup(1, 0x11000, &out));
  tlb.InvalidateAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 0x11000, &out));
  EXPECT_TRUE(tlb.Lookup(2, 0x10000, &out));
  tlb.InvalidateAll();
  EXPECT_FALSE(tlb.Lookup(2, 0x10000, &out));
  tlb.CountShootdown();
  EXPECT_EQ(tlb.stats().shootdowns_received, 1u);
  EXPECT_GT(tlb.stats().invalidations, 0u);
}

TEST(CpuTest, FpDirtyTracking) {
  Cpu cpu;
  EXPECT_FALSE(cpu.fp_dirty());
  cpu.WriteFpRegister(2, 3.5);
  EXPECT_TRUE(cpu.fp_dirty());
  EXPECT_EQ(cpu.fp().regs[2], 3.5);
  cpu.set_fp_dirty(false);
  EXPECT_FALSE(cpu.fp_dirty());
}

TEST(DeviceTest, ConsoleAndTimer) {
  Machine m;
  ASSERT_TRUE(m.IoWrite(Machine::kPortConsole, 'h').ok());
  ASSERT_TRUE(m.IoWrite(Machine::kPortConsole, 'i').ok());
  EXPECT_EQ(m.console().output(), "hi");
  ASSERT_TRUE(m.IoWrite(Machine::kPortTimer, 5).ok());
  EXPECT_EQ(*m.IoRead(Machine::kPortTimer), 5u);
  EXPECT_FALSE(m.IoRead(0x9999).ok());
}

TEST(DeviceTest, TimerFrequencyReprogramming) {
  Machine m;
  EXPECT_EQ(m.timer().frequency_hz(), TimerDevice::kDefaultFrequencyHz);
  ASSERT_TRUE(m.timer().SetFrequency(997).ok());
  EXPECT_EQ(m.timer().frequency_hz(), 997u);
  EXPECT_EQ(m.timer().period_ns(), 1000000000ull / 997);
  // A stopped clock (0 Hz) and rates past the crystal are rejected, and a
  // rejected reprogram leaves the running rate untouched.
  EXPECT_EQ(m.timer().SetFrequency(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.timer().SetFrequency(TimerDevice::kMaxFrequencyHz + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(m.timer().frequency_hz(), 997u);
}

TEST(DeviceTest, TimerInterruptLineIsSeparateFromTicks) {
  Machine m;
  int fired = 0;
  m.timer().SetInterruptCallback([&fired] { ++fired; });
  const uint64_t ticks_before = m.timer().ticks();
  m.timer().FireInterrupt();
  m.timer().FireInterrupt();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(m.timer().interrupts_fired(), 2u);
  // The interrupt line never advances guest time: gettimeofday's tick
  // fiction is immune to profiler rate changes.
  EXPECT_EQ(m.timer().ticks(), ticks_before);
  m.timer().SetInterruptCallback(nullptr);
  m.timer().FireInterrupt();  // No callback installed: counted, not called.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(m.timer().interrupts_fired(), 3u);
}

TEST(DeviceTest, BlockDeviceSectors) {
  Machine m;
  std::vector<uint8_t> sector(BlockDevice::kSectorSize, 0x5A);
  ASSERT_TRUE(m.disk().WriteSector(7, sector.data()).ok());
  std::vector<uint8_t> back(BlockDevice::kSectorSize, 0);
  ASSERT_TRUE(m.disk().ReadSector(7, back.data()).ok());
  EXPECT_EQ(back[0], 0x5A);
  EXPECT_EQ(back[511], 0x5A);
  EXPECT_FALSE(m.disk().ReadSector(m.disk().num_sectors(), back.data()).ok());
  EXPECT_EQ(m.disk().reads(), 1u);
  EXPECT_EQ(m.disk().writes(), 1u);
}

TEST(MachineTest, PhysicalPageAllocator) {
  Machine m(/*memory_bytes=*/16 * kPageSize);
  uint64_t first = m.AllocatePhysicalPage();
  EXPECT_EQ(first, kPageSize);  // Page 0 is the null guard.
  uint64_t second = m.AllocatePhysicalPage();
  EXPECT_EQ(second, 2 * kPageSize);
  // Pages come back zeroed.
  EXPECT_EQ(*m.memory().Read(second, 8), 0u);
  // Exhaustion returns 0.
  for (int i = 0; i < 32; ++i) {
    m.AllocatePhysicalPage();
  }
  EXPECT_EQ(m.AllocatePhysicalPage(), 0u);
}

}  // namespace
}  // namespace sva::hw
