// The networking subsystem: NIC descriptor rings, DMA bounds, the
// metapool-correlated packet-buffer pool, the socket layer and its kernel
// syscall error paths, the loopback echo end-to-end path, and a
// multi-worker rx/tx stress test (labelled `concurrency` for the tsan
// preset).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/net/client.h"
#include "src/net/net_stack.h"
#include "src/net/skb.h"
#include "src/runtime/metapool_runtime.h"
#include "src/smp/percpu.h"
#include "src/svaos/svaos.h"

namespace sva::net {
namespace {

// --- VirtualNic: rings, wrap, full, DMA bounds -------------------------------

class NicTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRing = 0x1000;    // 4 rx descriptors.
  static constexpr uint64_t kTxRing = 0x1800;  // 4 tx descriptors.
  static constexpr uint64_t kBufs = 0x2000;    // 4 x 256-byte buffers.
  static constexpr uint64_t kRingSize = 4;

  void SetUp() override {
    hw::VirtualNic& nic = machine_.nic();
    ASSERT_TRUE(nic.RegWrite(static_cast<uint16_t>(hw::NicReg::kRxBase), kRing)
                    .ok());
    ASSERT_TRUE(
        nic.RegWrite(static_cast<uint16_t>(hw::NicReg::kRxSize), kRingSize)
            .ok());
    ASSERT_TRUE(
        nic.RegWrite(static_cast<uint16_t>(hw::NicReg::kTxBase), kTxRing)
            .ok());
    ASSERT_TRUE(
        nic.RegWrite(static_cast<uint16_t>(hw::NicReg::kTxSize), kRingSize)
            .ok());
    ASSERT_TRUE(nic.RegWrite(static_cast<uint16_t>(hw::NicReg::kCommand),
                             static_cast<uint64_t>(hw::NicCommand::kEnable))
                    .ok());
  }

  void PostRx(uint64_t index, uint64_t buffer, uint16_t capacity) {
    uint64_t at = kRing + index * hw::kNicDescriptorBytes;
    hw::PhysicalMemory& mem = machine_.memory();
    ASSERT_TRUE(mem.Write(at, 8, buffer).ok());
    ASSERT_TRUE(mem.Write(at + 8, 2, capacity).ok());
    ASSERT_TRUE(mem.Write(at + 10, 2, 0).ok());
    ASSERT_TRUE(mem.Write(at + 12, 2, hw::kNicDescOwned).ok());
  }

  uint16_t DescLength(uint64_t index) {
    return static_cast<uint16_t>(*machine_.memory().Read(
        kRing + index * hw::kNicDescriptorBytes + 10, 2));
  }

  uint16_t DescFlags(uint64_t index) {
    return static_cast<uint16_t>(*machine_.memory().Read(
        kRing + index * hw::kNicDescriptorBytes + 12, 2));
  }

  Status Receive(const std::string& frame) {
    return machine_.nic().Receive(
        reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
  }

  hw::Machine machine_;
};

TEST_F(NicTest, RxFillsPostedDescriptorsAndRaisesIrq) {
  for (uint64_t i = 0; i < kRingSize; ++i) {
    PostRx(i, kBufs + i * 256, 256);
  }
  ASSERT_TRUE(Receive("hello").ok());
  EXPECT_TRUE(machine_.nic().irq_pending());
  EXPECT_EQ(DescLength(0), 5u);
  EXPECT_EQ(DescFlags(0) & hw::kNicDescOwned, 0u);  // Handed back.
  EXPECT_EQ(std::memcmp(machine_.memory().raw(kBufs), "hello", 5), 0);
  EXPECT_EQ(machine_.nic().counters().rx_frames, 1u);
}

TEST_F(NicTest, RxRingFullDropsAndRepostWraps) {
  for (uint64_t i = 0; i < kRingSize; ++i) {
    PostRx(i, kBufs + i * 256, 256);
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Receive("frame").ok());
  }
  // All four descriptors consumed; the fifth frame has nowhere to land.
  EXPECT_EQ(Receive("dropped").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(machine_.nic().counters().rx_frames, 4u);
  EXPECT_EQ(machine_.nic().counters().rx_dropped_full, 1u);
  // Repost slot 0: the device's head has wrapped around to it.
  EXPECT_EQ(*machine_.nic().RegRead(
                static_cast<uint16_t>(hw::NicReg::kRxHead)),
            0u);
  PostRx(0, kBufs, 256);
  ASSERT_TRUE(Receive("wrap!").ok());
  EXPECT_EQ(machine_.nic().counters().rx_frames, 5u);
  EXPECT_EQ(DescLength(0), 5u);
}

TEST_F(NicTest, RxWhileDisabledDrops) {
  ASSERT_TRUE(machine_.nic()
                  .RegWrite(static_cast<uint16_t>(hw::NicReg::kCommand),
                            static_cast<uint64_t>(hw::NicCommand::kReset))
                  .ok());
  PostRx(0, kBufs, 256);
  EXPECT_EQ(Receive("nope").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(machine_.nic().counters().rx_dropped_disabled, 1u);
  EXPECT_EQ(machine_.nic().counters().rx_frames, 0u);
}

TEST_F(NicTest, DmaBoundsRejected) {
  // Descriptor whose buffer points past the end of physical memory.
  PostRx(0, machine_.memory().size() - 8, 256);
  EXPECT_EQ(Receive("overrun").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(machine_.nic().counters().dma_errors, 1u);
  EXPECT_EQ(machine_.nic().counters().rx_frames, 0u);
  // The device head did not advance; a descriptor whose capacity cannot
  // hold the frame is also refused.
  PostRx(0, kBufs, 4);
  EXPECT_EQ(Receive("too long for four bytes").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(machine_.nic().counters().dma_errors, 2u);
  EXPECT_EQ(machine_.nic().counters().rx_frames, 0u);
}

// --- SkbPool: registration/drop lifecycle ------------------------------------

TEST(SkbPoolTest, RegistersOnAllocDropsOnFree) {
  hw::Machine machine;
  runtime::MetaPoolRuntime pools;
  SkbPool pool(machine, &pools, /*safety_checks=*/true);
  auto skb = pool.Alloc();
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ(pool.live(), 1u);
  // In bounds: the whole 2 KB buffer is one registered object.
  EXPECT_TRUE(pools.BoundsCheck(*pool.metapool(), skb->addr,
                                skb->addr + kSkbBufferBytes - 1)
                  .ok());
  // One past the end: the parser overrun the exploit study relies on.
  Status s = pools.BoundsCheck(*pool.metapool(), skb->addr,
                               skb->addr + kSkbBufferBytes);
  EXPECT_EQ(s.code(), StatusCode::kSafetyViolation);
  ASSERT_TRUE(pool.Free(skb->addr).ok());
  EXPECT_EQ(pool.live(), 0u);
  // The dropped buffer is no longer a valid source object.
  EXPECT_FALSE(
      pools.BoundsCheck(*pool.metapool(), skb->addr, skb->addr + 1).ok());
}

// --- NetStack: sockets, loopback echo, malformed frames ----------------------

class NetStackTest : public ::testing::Test {
 protected:
  NetStackTest()
      : svaos_(machine_),
        stack_(machine_, svaos_, &pools_, /*safety_checks=*/true,
               /*use_svaos=*/true),
        client_(stack_) {
    Status s = stack_.Boot();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  std::string ReadSlice(const NetStack::RecvSlice& slice) {
    std::string out(slice.len, '\0');
    std::memcpy(out.data(), machine_.memory().raw(slice.data_addr),
                slice.len);
    return out;
  }

  hw::Machine machine_;
  svaos::SvaOS svaos_;
  runtime::MetaPoolRuntime pools_;
  NetStack stack_;
  LoopbackClient client_;
};

TEST_F(NetStackTest, DatagramEchoEndToEnd) {
  auto sid = stack_.CreateSocket(SocketKind::kDatagram);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(stack_.Bind(*sid, 7).ok());
  uint64_t live_before = stack_.skbs().live();
  ASSERT_TRUE(client_.SendDatagram(9, 7, {'p', 'i', 'n', 'g'}).ok());
  auto slice = stack_.RecvBegin(*sid, 64);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(ReadSlice(*slice), "ping");
  ASSERT_TRUE(stack_.RecvFinish(*slice).ok());
  // The packet buffer went back to the pool (rx ring stayed fully posted).
  EXPECT_EQ(stack_.skbs().live(), live_before);
  EXPECT_EQ(stack_.stats().rx_delivered.load(), 1u);

  // Echo back out through the tx ring; the client sees the reply.
  auto skb = stack_.AllocTxSkb();
  ASSERT_TRUE(skb.ok());
  std::memcpy(machine_.memory().raw(skb->addr + kTxPayloadOffset), "pong", 4);
  auto sent = stack_.Send(*sid, *skb, 4, kClientIp, 9);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, 4u);
  auto datagrams = client_.TakeDatagrams();
  ASSERT_EQ(datagrams.size(), 1u);
  EXPECT_EQ(std::string(datagrams[0].begin(), datagrams[0].end()), "pong");
}

TEST_F(NetStackTest, StreamConnectAcceptAndData) {
  auto listener = stack_.CreateSocket(SocketKind::kListener);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(stack_.Bind(*listener, 80).ok());
  auto conn = client_.OpenStream(80);
  ASSERT_TRUE(conn.ok());
  auto accepted = stack_.Accept(*listener);
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(client_.SendStream(*conn, "GET /").ok());
  auto slice = stack_.RecvBegin(*accepted, 3);  // Partial stream read.
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(ReadSlice(*slice), "GET");
  ASSERT_TRUE(stack_.RecvFinish(*slice).ok());
  auto rest = stack_.RecvBegin(*accepted, 64);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(ReadSlice(*rest), " /");
  ASSERT_TRUE(stack_.RecvFinish(*rest).ok());

  auto skb = stack_.AllocTxSkb();
  ASSERT_TRUE(skb.ok());
  std::memcpy(machine_.memory().raw(skb->addr + kTxPayloadOffset), "OK", 2);
  ASSERT_TRUE(stack_.Send(*accepted, *skb, 2, 0, 0).ok());
  EXPECT_EQ(client_.TakeStream(*conn), "OK");
  ASSERT_TRUE(client_.CloseStream(*conn).ok());
  ASSERT_TRUE(stack_.Close(*accepted).ok());
  ASSERT_TRUE(stack_.Close(*listener).ok());
}

TEST_F(NetStackTest, SocketErrorPaths) {
  auto dgram = stack_.CreateSocket(SocketKind::kDatagram);
  ASSERT_TRUE(dgram.ok());
  EXPECT_EQ(stack_.Bind(*dgram, 0).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(stack_.Bind(*dgram, 7).ok());
  EXPECT_EQ(stack_.Bind(*dgram, 8).code(),
            StatusCode::kFailedPrecondition);  // Already bound.
  auto other = stack_.CreateSocket(SocketKind::kDatagram);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(stack_.Bind(*other, 7).code(),
            StatusCode::kAlreadyExists);  // Port in use.
  EXPECT_EQ(stack_.Accept(*dgram).status().code(),
            StatusCode::kInvalidArgument);  // Not a listener.

  auto listener = stack_.CreateSocket(SocketKind::kListener);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(stack_.Bind(*listener, 80).ok());
  EXPECT_EQ(stack_.Accept(*listener).status().code(),
            StatusCode::kFailedPrecondition);  // Empty backlog.
  auto skb = stack_.AllocTxSkb();
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ(stack_.Send(*listener, *skb, 4, kClientIp, 9).status().code(),
            StatusCode::kInvalidArgument);  // Send on a listener.
  EXPECT_EQ(stack_.RecvBegin(*listener, 64).status().code(),
            StatusCode::kInvalidArgument);  // Recv on a listener.

  ASSERT_TRUE(stack_.Close(*dgram).ok());
  EXPECT_EQ(stack_.Close(*dgram).code(), StatusCode::kNotFound);
  EXPECT_EQ(stack_.RecvBegin(*dgram, 64).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(stack_.Close(9999).code(), StatusCode::kNotFound);
}

TEST_F(NetStackTest, MalformedLengthFieldCaughtAndStackSurvives) {
  auto sid = stack_.CreateSocket(SocketKind::kDatagram);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(stack_.Bind(*sid, 7).ok());
  uint64_t live_before = stack_.skbs().live();
  // The UDP header claims 4 KB of payload inside a 2 KB packet buffer.
  ASSERT_TRUE(client_.SendMalformedDatagram(9, 7, /*claimed_payload=*/4096,
                                            /*actual_payload=*/64)
                  .ok());
  EXPECT_EQ(stack_.stats().rx_violations.load(), 1u);
  EXPECT_EQ(stack_.stats().rx_delivered.load(), 0u);
  EXPECT_EQ(stack_.skbs().live(), live_before);  // Attack skb freed.
  // The stack survives and still delivers benign traffic.
  ASSERT_TRUE(client_.SendDatagram(9, 7, {'o', 'k'}).ok());
  auto slice = stack_.RecvBegin(*sid, 64);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(ReadSlice(*slice), "ok");
  ASSERT_TRUE(stack_.RecvFinish(*slice).ok());
}

// --- Kernel syscall surface --------------------------------------------------

class NetSyscallTest : public ::testing::Test {
 protected:
  NetSyscallTest() : machine_(128ull << 20, 4096) {
    kernel::KernelConfig config;
    config.mode = kernel::KernelMode::kSvaSafe;
    kernel_ = std::make_unique<kernel::Kernel>(machine_, config);
    Status s = kernel_->Boot();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  uint64_t Call(kernel::Sys n, uint64_t a0 = 0, uint64_t a1 = 0,
                uint64_t a2 = 0, uint64_t a3 = 0) {
    auto r = kernel_->Syscall(n, a0, a1, a2, a3);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : ~0ull;
  }

  uint64_t user() const { return kernel::kUserVirtualBase + 0x100000; }

  static uint64_t Dest(uint32_t ip, uint16_t port) {
    return (static_cast<uint64_t>(ip) << 16) | port;
  }

  hw::Machine machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
};

constexpr uint64_t kEInval = static_cast<uint64_t>(-22);
constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
constexpr uint64_t kEAgain = static_cast<uint64_t>(-11);
constexpr uint64_t kEMsgSize = static_cast<uint64_t>(-90);
constexpr uint64_t kEAddrInUse = static_cast<uint64_t>(-98);

TEST_F(NetSyscallTest, ErrorPaths) {
  using kernel::Sys;
  EXPECT_EQ(Call(Sys::kSocket, 77), kEInval);  // Unknown domain.
  EXPECT_EQ(Call(Sys::kSocket, 0), kEInval);   // No domain 0.
  EXPECT_EQ(Call(Sys::kBind, 999, 80), kEBadF);
  ASSERT_TRUE(kernel_->PokeUserString(user(), "/tmp/f").ok());
  uint64_t file = Call(Sys::kOpen, user(), 1);  // A non-net fd.
  EXPECT_EQ(Call(Sys::kBind, file, 80), kEBadF);
  // send/recv are socket-only: a regular file and a pipe are kEBadF.
  EXPECT_EQ(Call(Sys::kSend, file, user(), 8, Dest(kLoopbackIp, 7000)),
            kEBadF);
  EXPECT_EQ(Call(Sys::kRecv, file, user(), 8), kEBadF);
  ASSERT_EQ(Call(Sys::kPipe, user() + 64), 0u);
  uint32_t pipe_fds[2] = {0, 0};
  ASSERT_TRUE(kernel_->PeekUser(user() + 64, pipe_fds, 8).ok());
  EXPECT_EQ(Call(Sys::kSend, pipe_fds[1], user(), 8), kEBadF);
  EXPECT_EQ(Call(Sys::kRecv, pipe_fds[0], user(), 8), kEBadF);

  uint64_t dgram = Call(
      Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kDatagram));
  EXPECT_EQ(Call(Sys::kBind, dgram, 0), kEInval);
  EXPECT_EQ(Call(Sys::kBind, dgram, 7000), 0u);
  uint64_t other = Call(
      Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kDatagram));
  EXPECT_EQ(Call(Sys::kBind, other, 7000), kEAddrInUse);
  EXPECT_EQ(Call(Sys::kAccept, dgram), kEInval);  // Not a listener.

  uint64_t listener = Call(
      Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kListener));
  EXPECT_EQ(Call(Sys::kBind, listener, 8080), 0u);
  EXPECT_EQ(Call(Sys::kAccept, listener), kEAgain);  // Empty backlog.

  // A datagram larger than one frame's payload.
  EXPECT_EQ(Call(Sys::kSend, dgram, user(), kMaxUdpPayload + 1,
                 Dest(kServerIp, 7000)),
            kEMsgSize);
  // Recv on an empty queue would block: kEAgain, not 0 (0 is reserved for
  // EOF after the peer's FIN — the non-blocking contract the event queue
  // relies on).
  EXPECT_EQ(Call(Sys::kRecv, dgram, user(), 512), kEAgain);
}

TEST_F(NetSyscallTest, LoopbackEchoThroughSyscalls) {
  using kernel::Sys;
  uint64_t fd = Call(
      Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kDatagram));
  EXPECT_EQ(Call(Sys::kBind, fd, 9001), 0u);
  const std::string msg = "over the lo device";
  ASSERT_TRUE(kernel_->PokeUser(user(), msg.data(), msg.size()).ok());
  EXPECT_EQ(Call(Sys::kSend, fd, user(), msg.size(),
                 Dest(kLoopbackIp, 9001)),
            msg.size());
  EXPECT_EQ(Call(Sys::kRecv, fd, user() + 4096, 2048), msg.size());
  std::string got(msg.size(), '\0');
  ASSERT_TRUE(
      kernel_->PeekUser(user() + 4096, got.data(), got.size()).ok());
  EXPECT_EQ(got, msg);
  EXPECT_EQ(Call(Sys::kClose, fd), 0u);
  // The socket is gone: send/recv on the stale fd fail cleanly.
  EXPECT_EQ(Call(Sys::kRecv, fd, user(), 64), kEBadF);
}

TEST_F(NetSyscallTest, AcceptedConnectionServesOverSyscalls) {
  using kernel::Sys;
  uint64_t listener = Call(
      Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kListener));
  EXPECT_EQ(Call(Sys::kBind, listener, 80), 0u);
  LoopbackClient client(*kernel_->net());
  auto conn = client.OpenStream(80);
  ASSERT_TRUE(conn.ok());
  uint64_t fd = Call(Sys::kAccept, listener);
  ASSERT_TRUE(client.SendStream(*conn, "GET /index.html").ok());
  EXPECT_EQ(Call(Sys::kRecv, fd, user(), 512), 15u);
  const std::string body = "<html>hi</html>";
  ASSERT_TRUE(kernel_->PokeUser(user(), body.data(), body.size()).ok());
  EXPECT_EQ(Call(Sys::kSend, fd, user(), body.size()), body.size());
  EXPECT_EQ(client.TakeStream(*conn), body);
  EXPECT_EQ(Call(Sys::kClose, fd), 0u);
  EXPECT_EQ(Call(Sys::kClose, listener), 0u);
}

// --- Concurrency: rx/tx stress under the tsan preset -------------------------

TEST(NetConcurrencyTest, ConcurrentNicRxAndLoopbackTraffic) {
  hw::Machine machine;
  svaos::SvaOS svaos(machine);
  runtime::MetaPoolRuntime pools;
  NetStack stack(machine, svaos, &pools, /*safety_checks=*/true,
                 /*use_svaos=*/true);
  ASSERT_TRUE(stack.Boot().ok());
  constexpr unsigned kWorkers = 4;
  constexpr int kIters = 200;
  svaos.ConfigureCpus(kWorkers);

  // Worker 0 owns the NIC (the device model is single-threaded, like real
  // hardware behind one irq line): it injects wire datagrams and transmits
  // replies. Workers 1..3 hammer the loopback path on their own sockets.
  std::vector<int> sids(kWorkers);
  for (unsigned t = 0; t < kWorkers; ++t) {
    auto sid = stack.CreateSocket(SocketKind::kDatagram);
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(stack.Bind(*sid, static_cast<uint16_t>(9100 + t)).ok());
    sids[t] = *sid;
  }
  uint64_t live_before = stack.skbs().live();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      smp::ScopedCpu bind(t);
      if (t == 0) {
        LoopbackClient client(stack);
        std::vector<uint8_t> payload(64, 0xAB);
        for (int i = 0; i < kIters; ++i) {
          ASSERT_TRUE(client.SendDatagram(5000, 9100, payload).ok());
          auto slice = stack.RecvBegin(sids[0], 2048);
          ASSERT_TRUE(slice.ok());
          ASSERT_EQ(slice->len, payload.size());
          ASSERT_TRUE(stack.RecvFinish(*slice).ok());
          auto skb = stack.AllocTxSkb();
          ASSERT_TRUE(skb.ok());
          auto sent = stack.Send(sids[0], *skb, 32, kClientIp, 5000);
          ASSERT_TRUE(sent.ok());
        }
        ASSERT_EQ(client.TakeDatagrams().size(),
                  static_cast<size_t>(kIters));
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        auto skb = stack.AllocTxSkb();
        ASSERT_TRUE(skb.ok());
        auto sent = stack.Send(sids[t], *skb, 48, kServerIp,
                               static_cast<uint16_t>(9100 + t));
        ASSERT_TRUE(sent.ok());
        auto slice = stack.RecvBegin(sids[t], 2048);
        ASSERT_TRUE(slice.ok());
        ASSERT_EQ(slice->len, 48u);
        ASSERT_TRUE(stack.RecvFinish(*slice).ok());
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  // Every packet buffer went home: nothing leaked under contention.
  EXPECT_EQ(stack.skbs().live(), live_before);
  EXPECT_EQ(stack.stats().rx_delivered.load(),
            static_cast<uint64_t>(kWorkers) * kIters);
  EXPECT_EQ(stack.stats().rx_violations.load(), 0u);
  for (unsigned t = 0; t < kWorkers; ++t) {
    ASSERT_TRUE(stack.Close(sids[t]).ok());
  }
}

TEST(NetConcurrencyTest, ConcurrentKernelNetSyscalls) {
  hw::Machine machine(128ull << 20, 4096);
  kernel::KernelConfig config;
  config.mode = kernel::KernelMode::kSvaSafe;
  kernel::Kernel kernel(machine, config);
  ASSERT_TRUE(kernel.Boot().ok());
  constexpr unsigned kWorkers = 4;
  constexpr int kIters = 150;
  kernel.svaos().ConfigureCpus(kWorkers);
  const uint64_t base = kernel::kUserVirtualBase + 0x100000;
  for (unsigned t = 0; t < kWorkers; ++t) {
    std::vector<uint8_t> bytes(128, static_cast<uint8_t>(t + 1));
    ASSERT_TRUE(
        kernel.PokeUser(base + 16384 + t * 4096, bytes.data(), bytes.size())
            .ok());
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&kernel, base, t] {
      smp::ScopedCpu bind(t);
      auto call = [&kernel](kernel::Sys n, uint64_t a0, uint64_t a1 = 0,
                            uint64_t a2 = 0, uint64_t a3 = 0) -> uint64_t {
        auto r = kernel.Syscall(n, a0, a1, a2, a3);
        EXPECT_TRUE(r.ok());
        if (!r.ok()) {
          return ~0ull;
        }
        EXPECT_LT(*r, 1ull << 32);  // No errno came back.
        return *r;
      };
      uint64_t fd = call(
          kernel::Sys::kSocket,
          static_cast<uint64_t>(kernel::SocketDomain::kDatagram));
      uint16_t port = static_cast<uint16_t>(9200 + t);
      call(kernel::Sys::kBind, fd, port);
      uint64_t txbuf = base + 16384 + t * 4096;
      uint64_t rxbuf = txbuf + 2048;
      uint64_t dest = (static_cast<uint64_t>(kServerIp) << 16) | port;
      for (int i = 0; i < kIters; ++i) {
        ASSERT_EQ(call(kernel::Sys::kSend, fd, txbuf, 128, dest), 128u);
        ASSERT_EQ(call(kernel::Sys::kRecv, fd, rxbuf, 2048), 128u);
      }
      call(kernel::Sys::kClose, fd);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(kernel.net()->stats().rx_violations.load(), 0u);
  EXPECT_EQ(kernel.net()->stats().loopback_frames.load(),
            static_cast<uint64_t>(kWorkers) * kIters);
}

}  // namespace
}  // namespace sva::net
