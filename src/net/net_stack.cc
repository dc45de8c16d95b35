#include "src/net/net_stack.h"

#include <cstring>

#include "src/support/strings.h"
#include "src/trace/trace.h"

namespace sva::net {

NetStack::NetStack(hw::Machine& machine, svaos::SvaOS& svaos,
                   runtime::MetaPoolRuntime* pools, bool safety_checks,
                   bool use_svaos)
    : machine_(machine),
      svaos_(svaos),
      pools_(safety_checks ? pools : nullptr),
      use_svaos_(use_svaos),
      skb_pool_(machine, pools, safety_checks),
      sock_pages_(machine),
      sock_cache_("net_sock", 128, sock_pages_) {
  if (pools_ != nullptr) {
    sock_metapool_ = pools_->GetPool("MPc.net_sock", /*type_homogeneous=*/true,
                                     /*element_size=*/128, /*complete=*/true);
    sock_metapool_->UseSlabRegistry(sock_cache_);
  }
}

Status NetStack::IoWriteReg(hw::NicReg reg, uint64_t value) {
  uint16_t port = static_cast<uint16_t>(hw::Machine::kPortNicBase +
                                        static_cast<uint16_t>(reg));
  // SVA-PORT(svaos): device register writes go through the SVA-OS I/O
  // operation instead of a raw outb (Section 3.3).
  return use_svaos_ ? svaos_.IoWrite(port, value)
                    : machine_.IoWrite(port, value);
}

Result<uint64_t> NetStack::IoReadReg(hw::NicReg reg) {
  uint16_t port = static_cast<uint16_t>(hw::Machine::kPortNicBase +
                                        static_cast<uint16_t>(reg));
  // SVA-PORT(svaos): device register reads through the SVA-OS I/O op.
  return use_svaos_ ? svaos_.IoRead(port) : machine_.IoRead(port);
}

Status NetStack::PostRxSlot(uint64_t index, uint64_t skb_addr) {
  hw::PhysicalMemory& mem = machine_.memory();
  uint64_t at = rx_ring_base_ + index * hw::kNicDescriptorBytes;
  SVA_RETURN_IF_ERROR(mem.Write(at, 8, skb_addr));
  SVA_RETURN_IF_ERROR(mem.Write(at + 8, 2, kSkbBufferBytes));
  SVA_RETURN_IF_ERROR(mem.Write(at + 10, 2, 0));
  SVA_RETURN_IF_ERROR(mem.Write(at + 12, 2, hw::kNicDescOwned));
  rx_slot_skbs_[index] = skb_addr;
  return OkStatus();
}

Status NetStack::Boot() {
  // DMA-coherent ring pages, allocated once at driver init.
  rx_ring_base_ = machine_.AllocatePhysicalPage();
  tx_ring_base_ = machine_.AllocatePhysicalPage();
  if (rx_ring_base_ == 0 || tx_ring_base_ == 0) {
    return Internal("net: no memory for NIC rings");
  }
  // Post every rx slot with a fresh packet-pool buffer: DMA lands directly
  // in metapool-registered objects.
  for (uint64_t i = 0; i < kRxRingSize; ++i) {
    SVA_ASSIGN_OR_RETURN(Skb skb, skb_pool_.Alloc());
    SVA_RETURN_IF_ERROR(PostRxSlot(i, skb.addr));
  }
  SVA_RETURN_IF_ERROR(IoWriteReg(hw::NicReg::kRxBase, rx_ring_base_));
  SVA_RETURN_IF_ERROR(IoWriteReg(hw::NicReg::kRxSize, kRxRingSize));
  SVA_RETURN_IF_ERROR(IoWriteReg(hw::NicReg::kTxBase, tx_ring_base_));
  SVA_RETURN_IF_ERROR(IoWriteReg(hw::NicReg::kTxSize, kTxRingSize));
  SVA_RETURN_IF_ERROR(
      IoWriteReg(hw::NicReg::kCommand,
                 static_cast<uint64_t>(hw::NicCommand::kEnable)));
  if (use_svaos_) {
    // SVA-PORT(svaos): the rx handler is registered through
    // llva.register.interrupt rather than wired into a hand-built IDT.
    SVA_RETURN_IF_ERROR(svaos_.RegisterInterrupt(
        kNicIrqVector, [this](svaos::InterruptContext*) {
          HandleRxInterrupt();
        }));
  }
  booted_ = true;
  return OkStatus();
}

void NetStack::PumpRx() {
  while (true) {
    auto status = IoReadReg(hw::NicReg::kStatus);
    if (!status.ok() || (*status & hw::kNicStatusRxPending) == 0) {
      return;
    }
    if (use_svaos_) {
      (void)svaos_.RaiseInterrupt(kNicIrqVector);
    } else {
      HandleRxInterrupt();
    }
  }
}

void NetStack::HandleRxInterrupt() {
  trace::Span span(trace::EventId::kNicRxIrq, trace::HistId::kNicRxIrqNs);
  stats_.rx_irqs.fetch_add(1, std::memory_order_relaxed);
  // NAPI: mask the line so back-to-back arrivals don't re-interrupt, then
  // poll the ring in budget-bounded passes until a pass comes back short
  // and the device reports no further work. One interrupt absorbs a whole
  // burst; the per-frame cost is a descriptor read, not an irq.
  (void)IoWriteReg(hw::NicReg::kCommand,
                   static_cast<uint64_t>(hw::NicCommand::kIrqMask));
  while (true) {
    (void)IoWriteReg(hw::NicReg::kCommand,
                     static_cast<uint64_t>(hw::NicCommand::kIrqAck));
    uint64_t polled = PollRxOnce(kNapiRxBudget);
    stats_.rx_polls.fetch_add(1, std::memory_order_relaxed);
    stats_.rx_frames_polled.fetch_add(polled, std::memory_order_relaxed);
    trace::Emit(trace::EventId::kNapiPoll, polled, kNapiRxBudget);
    if (polled == kNapiRxBudget) {
      continue;  // Full budget consumed: assume the ring has more.
    }
    auto status = IoReadReg(hw::NicReg::kStatus);
    if (status.ok() && (*status & hw::kNicStatusRxWork) != 0) {
      continue;  // More frames landed while we were delivering.
    }
    break;
  }
  (void)IoWriteReg(hw::NicReg::kCommand,
                   static_cast<uint64_t>(hw::NicCommand::kIrqUnmask));
}

uint64_t NetStack::PollRxOnce(uint64_t budget) {
  // Harvest filled descriptors under the driver lock, then deliver with the
  // lock released (delivery takes socket locks).
  std::vector<Skb> harvested;
  {
    std::lock_guard<smp::SpinLock> guard(nic_lock_);
    hw::PhysicalMemory& mem = machine_.memory();
    for (uint64_t scanned = 0; scanned < budget; ++scanned) {
      uint64_t at = rx_ring_base_ + rx_next_ * hw::kNicDescriptorBytes;
      auto flags = mem.Read(at + 12, 2);
      if (!flags.ok() || (*flags & hw::kNicDescOwned) != 0) {
        break;  // Still NIC-owned: not yet filled.
      }
      if (rx_slot_skbs_[rx_next_] == 0) {
        break;  // Slot was never reposted (pool pressure); nothing here.
      }
      auto length = mem.Read(at + 10, 2);
      Skb skb;
      skb.addr = rx_slot_skbs_[rx_next_];
      skb.len = length.ok() ? static_cast<uint32_t>(*length) : 0;
      harvested.push_back(skb);
      // Repost the slot with a fresh buffer so the ring keeps receiving.
      auto fresh = skb_pool_.Alloc();
      if (fresh.ok()) {
        (void)PostRxSlot(rx_next_, fresh->addr);
      } else {
        rx_slot_skbs_[rx_next_] = 0;  // Ring stalls here until pool recovers.
      }
      rx_next_ = (rx_next_ + 1) % kRxRingSize;
    }
  }
  for (const Skb& skb : harvested) {
    (void)DeliverFrame(skb);
  }
  return harvested.size();
}

Status NetStack::DeliverFrame(Skb skb) {
  trace::Emit(trace::EventId::kNicRxDeliver, skb.len);
  const uint8_t* data = machine_.memory().raw(skb.addr);
  auto header = ParseHeaders(data, skb.len);
  if (!header.ok()) {
    stats_.rx_parse_errors.fetch_add(1, std::memory_order_relaxed);
    (void)skb_pool_.Free(skb.addr);
    return header.status();
  }
  const FrameHeader& h = *header;

  uint32_t payload_len = h.claimed_payload;
  if (pools_ != nullptr) {
    // SVA-PORT(analysis): the parser derives a payload-end pointer from the
    // header's claimed length; the safety compiler inserts a bounds check on
    // that arithmetic against the packet buffer's metapool entry. A frame
    // whose length field lies past the buffer is caught right here.
    uint64_t derived =
        skb.addr + h.payload_offset + payload_len - (payload_len == 0 ? 0 : 1);
    Status check = pools_->BoundsCheck(*skb_pool_.metapool(), skb.addr,
                                       derived);
    if (!check.ok()) {
      stats_.rx_violations.fetch_add(1, std::memory_order_relaxed);
      (void)skb_pool_.Free(skb.addr);
      return check;
    }
  } else {
    // Unchecked kernels never notice the lie; the parser would walk off the
    // buffer into the neighboring pool objects. The simulation clamps to the
    // buffer so the overread stays silent, as it was on real hardware.
    payload_len = std::min<uint32_t>(
        payload_len, static_cast<uint32_t>(kSkbBufferBytes) - h.payload_offset);
  }

  if (h.protocol == kIpProtoStream) {
    return DeliverStream(h, skb, payload_len);
  }

  // UDP datagram demux.
  int sid = -1;
  {
    std::lock_guard<smp::SpinLock> guard(table_lock_);
    auto it = udp_ports_.find(h.dst_port);
    if (it != udp_ports_.end()) {
      sid = it->second;
    }
  }
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    stats_.rx_no_socket.fetch_add(1, std::memory_order_relaxed);
    (void)skb_pool_.Free(skb.addr);
    return NotFound(StrCat("net: no socket on udp port ", h.dst_port));
  }
  {
    std::lock_guard<smp::SpinLock> guard(sock->lock);
    if (!sock->open || sock->rx.size() >= kMaxRxQueuePackets) {
      ++sock->rx_queue_drops;
      stats_.rx_queue_drops.fetch_add(1, std::memory_order_relaxed);
      (void)skb_pool_.Free(skb.addr);
      return OkStatus();
    }
    RxPacket pkt;
    pkt.skb_addr = skb.addr;
    pkt.off = h.payload_offset;
    pkt.len = payload_len;
    pkt.src_ip = h.src_ip;
    pkt.src_port = h.src_port;
    sock->rx.push_back(pkt);
  }
  stats_.rx_delivered.fetch_add(1, std::memory_order_relaxed);
  NotifyReady(sid);
  return OkStatus();
}

Status NetStack::DeliverStream(const FrameHeader& h, Skb skb,
                               uint32_t payload_len) {
  if ((h.stream_flags & kStreamSyn) != 0) {
    // Connection setup: create the stream socket and queue it on the
    // backlog of one listener in the port's accept-shard group. The shard
    // is picked by a flow hash over the peer address, so a given
    // connection always lands on the same listener (SO_REUSEPORT).
    int listener_sid = -1;
    {
      std::lock_guard<smp::SpinLock> guard(table_lock_);
      auto it = stream_listeners_.find(h.dst_port);
      if (it != stream_listeners_.end() && !it->second.empty()) {
        uint64_t flow = (static_cast<uint64_t>(h.src_ip) << 16) | h.src_port;
        flow *= 0x9E3779B97F4A7C15ull;  // Fibonacci hash: mixes low ports.
        listener_sid =
            it->second[(flow >> 32) % it->second.size()];
      }
    }
    NetSocket* listener = SocketById(listener_sid);
    if (listener == nullptr) {
      stats_.rx_no_socket.fetch_add(1, std::memory_order_relaxed);
      (void)skb_pool_.Free(skb.addr);
      return NotFound(StrCat("net: no listener on port ", h.dst_port));
    }
    auto conn = CreateSocket(SocketKind::kStream);
    if (!conn.ok()) {
      (void)skb_pool_.Free(skb.addr);
      return conn.status();
    }
    {
      std::lock_guard<smp::SpinLock> guard(table_lock_);
      NetSocket& s = *sockets_[static_cast<size_t>(*conn)];
      s.local_port = h.dst_port;
      s.peer_ip = h.src_ip;
      s.peer_port = h.src_port;
      stream_conns_[StreamKey(h.dst_port, h.src_port, h.src_ip)] = *conn;
    }
    bool queued = false;
    {
      std::lock_guard<smp::SpinLock> guard(listener->lock);
      if (listener->open) {
        // Backlog growth under SYN pressure: double the capacity (fd-table
        // style) up to the configured ceiling instead of dropping at the
        // fixed initial 64 slots.
        const uint32_t max_cap =
            max_accept_backlog_.load(std::memory_order_relaxed);
        if (listener->backlog.size() >= listener->backlog_cap &&
            listener->backlog_cap < max_cap) {
          listener->backlog_cap =
              std::min(listener->backlog_cap * 2, max_cap);
        }
        if (listener->backlog.size() < listener->backlog_cap) {
          listener->backlog.push_back(*conn);
          queued = true;
        }
      }
    }
    if (!queued) {
      // A full-at-ceiling backlog drops the connection, loudly: the SYN is
      // accounted like any other rx-queue overflow. (Close runs with the
      // listener lock released — it takes table and socket locks itself.)
      {
        std::lock_guard<smp::SpinLock> guard(listener->lock);
        ++listener->rx_queue_drops;
      }
      stats_.rx_queue_drops.fetch_add(1, std::memory_order_relaxed);
      (void)Close(*conn);
    }
    (void)skb_pool_.Free(skb.addr);
    if (queued) {
      NotifyReady(listener_sid);
    }
    return OkStatus();
  }

  int sid = -1;
  {
    std::lock_guard<smp::SpinLock> guard(table_lock_);
    auto it =
        stream_conns_.find(StreamKey(h.dst_port, h.src_port, h.src_ip));
    if (it != stream_conns_.end()) {
      sid = it->second;
    }
  }
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    stats_.rx_no_socket.fetch_add(1, std::memory_order_relaxed);
    (void)skb_pool_.Free(skb.addr);
    return NotFound("net: stream segment for unknown connection");
  }
  {
    std::lock_guard<smp::SpinLock> guard(sock->lock);
    if ((h.stream_flags & kStreamFin) != 0) {
      sock->peer_fin = true;
      (void)skb_pool_.Free(skb.addr);
    } else if (payload_len == 0 || !sock->open ||
               sock->rx.size() >= kMaxRxQueuePackets) {
      if (payload_len != 0) {
        ++sock->rx_queue_drops;
        stats_.rx_queue_drops.fetch_add(1, std::memory_order_relaxed);
      }
      (void)skb_pool_.Free(skb.addr);
      return OkStatus();  // A drop is not a readiness edge.
    } else {
      RxPacket pkt;
      pkt.skb_addr = skb.addr;
      pkt.off = h.payload_offset;
      pkt.len = payload_len;
      pkt.src_ip = h.src_ip;
      pkt.src_port = h.src_port;
      sock->rx.push_back(pkt);
      stats_.rx_delivered.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Data and FIN both make the socket readable; notify with the socket
  // lock released (the callback takes the kernel's evq locks).
  NotifyReady(sid);
  return OkStatus();
}

NetSocket* NetStack::SocketById(int sid) {
  if (sid < 0) {
    return nullptr;
  }
  std::lock_guard<smp::SpinLock> guard(table_lock_);
  if (static_cast<size_t>(sid) >= sockets_.size() ||
      sockets_[static_cast<size_t>(sid)] == nullptr ||
      !sockets_[static_cast<size_t>(sid)]->open) {
    return nullptr;
  }
  return sockets_[static_cast<size_t>(sid)].get();
}

Result<int> NetStack::CreateSocket(SocketKind kind) {
  uint64_t addr = sock_cache_.Allocate();
  if (addr == 0) {
    return FailedPrecondition("net: sock cache exhausted");
  }
  if (pools_ != nullptr) {
    // SVA-PORT(alloc): pchk.reg.obj on the sock object.
    Status reg = pools_->RegisterObject(*sock_metapool_, addr, 128);
    if (!reg.ok()) {
      (void)sock_cache_.Free(addr);
      return reg;
    }
  }
  auto sock = std::make_unique<NetSocket>();
  sock->kind = kind;
  sock->addr = addr;
  std::lock_guard<smp::SpinLock> guard(table_lock_);
  sockets_.push_back(std::move(sock));
  return static_cast<int>(sockets_.size() - 1);
}

Status NetStack::Bind(int sid, uint16_t port, bool reuse) {
  if (port == 0) {
    return InvalidArgument("net: bind to port 0");
  }
  std::lock_guard<smp::SpinLock> guard(table_lock_);
  if (sid < 0 || static_cast<size_t>(sid) >= sockets_.size() ||
      sockets_[static_cast<size_t>(sid)] == nullptr ||
      !sockets_[static_cast<size_t>(sid)]->open) {
    return NotFound("net: bind on bad socket");
  }
  NetSocket& sock = *sockets_[static_cast<size_t>(sid)];
  if (sock.local_port != 0) {
    return FailedPrecondition("net: socket already bound");
  }
  if (sock.kind == SocketKind::kStream) {
    return InvalidArgument("net: bind on an accepted connection");
  }
  if (sock.kind == SocketKind::kDatagram) {
    if (udp_ports_.count(port) != 0) {
      return AlreadyExists(StrCat("net: port ", port, " in use"));
    }
    sock.local_port = port;
    udp_ports_[port] = sid;
    return OkStatus();
  }
  // Listener: without `reuse` the port must be free; with it the listener
  // joins the port's accept-shard group (SO_REUSEPORT semantics).
  auto it = stream_listeners_.find(port);
  if (it != stream_listeners_.end() && !it->second.empty() && !reuse) {
    return AlreadyExists(StrCat("net: port ", port, " in use"));
  }
  sock.local_port = port;
  stream_listeners_[port].push_back(sid);
  return OkStatus();
}

Result<int> NetStack::Accept(int listener_sid) {
  NetSocket* listener = SocketById(listener_sid);
  if (listener == nullptr || listener->kind != SocketKind::kListener) {
    return InvalidArgument("net: accept on a non-listener");
  }
  std::lock_guard<smp::SpinLock> guard(listener->lock);
  if (listener->backlog.empty()) {
    return FailedPrecondition("net: no pending connections");
  }
  int sid = listener->backlog.front();
  listener->backlog.pop_front();
  stats_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
  return sid;
}

Result<SocketKind> NetStack::Kind(int sid) {
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    return NotFound("net: bad socket id");
  }
  return sock->kind;
}

Status NetStack::Close(int sid) {
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    return NotFound("net: close on bad socket");
  }
  std::vector<int> orphaned;
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<smp::SpinLock> table(table_lock_);
    std::lock_guard<smp::SpinLock> guard(sock->lock);
    sock->open = false;
    if (sock->kind == SocketKind::kDatagram && sock->local_port != 0) {
      udp_ports_.erase(sock->local_port);
    } else if (sock->kind == SocketKind::kListener && sock->local_port != 0) {
      // Leave the port's other accept shards serving; drop the group only
      // when this was the last one.
      auto it = stream_listeners_.find(sock->local_port);
      if (it != stream_listeners_.end()) {
        std::erase(it->second, sid);
        if (it->second.empty()) {
          stream_listeners_.erase(it);
        }
      }
    } else if (sock->kind == SocketKind::kStream) {
      stream_conns_.erase(
          StreamKey(sock->local_port, sock->peer_port, sock->peer_ip));
    }
    for (const RxPacket& pkt : sock->rx) {
      to_free.push_back(pkt.skb_addr);
    }
    sock->rx.clear();
    orphaned.assign(sock->backlog.begin(), sock->backlog.end());
    sock->backlog.clear();
  }
  for (uint64_t addr : to_free) {
    (void)skb_pool_.Free(addr);
  }
  for (int conn : orphaned) {
    (void)Close(conn);
  }
  if (pools_ != nullptr) {
    // SVA-PORT(alloc): pchk.drop.obj before the sock slot is reused.
    SVA_RETURN_IF_ERROR(pools_->DropObject(*sock_metapool_, sock->addr));
  }
  return sock_cache_.Free(sock->addr);
}

Result<Skb> NetStack::AllocTxSkb() { return skb_pool_.Alloc(); }

Status NetStack::FreeSkb(uint64_t addr) { return skb_pool_.Free(addr); }

Result<uint64_t> NetStack::Send(int sid, Skb skb, uint32_t payload_len,
                                uint32_t dst_ip, uint16_t dst_port) {
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    (void)skb_pool_.Free(skb.addr);
    return NotFound("net: send on bad socket");
  }
  uint8_t protocol;
  uint16_t src_port;
  uint32_t max_payload;
  {
    std::lock_guard<smp::SpinLock> guard(sock->lock);
    switch (sock->kind) {
      case SocketKind::kDatagram:
        protocol = kIpProtoUdp;
        src_port = sock->local_port;
        max_payload = kMaxUdpPayload;
        if (dst_ip == 0 || dst_port == 0) {
          (void)skb_pool_.Free(skb.addr);
          return InvalidArgument("net: datagram send needs a destination");
        }
        break;
      case SocketKind::kStream:
        protocol = kIpProtoStream;
        src_port = sock->local_port;
        max_payload = kMaxStreamPayload;
        dst_ip = sock->peer_ip;
        dst_port = sock->peer_port;
        break;
      case SocketKind::kListener:
      default:
        (void)skb_pool_.Free(skb.addr);
        return InvalidArgument("net: send on a listener");
    }
  }
  if (payload_len > max_payload) {
    (void)skb_pool_.Free(skb.addr);
    return InvalidArgument("net: payload exceeds one frame");
  }

  // Frame the headers in place, in front of the payload the caller already
  // placed at kTxPayloadOffset.
  skb.len = static_cast<uint32_t>(HeaderBytes(protocol)) + payload_len;
  if (pools_ != nullptr) {
    // SVA-PORT(analysis): bounds check on the header store loop's derived
    // pointer before writing into the packet buffer.
    Status check = pools_->BoundsCheck(*skb_pool_.metapool(), skb.addr,
                                       skb.addr + skb.len - 1);
    if (!check.ok()) {
      (void)skb_pool_.Free(skb.addr);
      return check;
    }
  }
  WriteHeaders(machine_.memory().raw(skb.addr), protocol, kServerIp, dst_ip,
               src_port, dst_port, payload_len);

  if (dst_ip == kLoopbackIp || dst_ip == kServerIp) {
    // The lo device: the frame never touches the NIC; it re-enters the rx
    // path (full parse + checks) and lands on the destination socket.
    stats_.loopback_frames.fetch_add(1, std::memory_order_relaxed);
    (void)DeliverFrame(skb);  // Undeliverable frames drop, as on a real lo.
    return payload_len;
  }
  SVA_RETURN_IF_ERROR(TransmitFrame(skb));
  return payload_len;
}

Status NetStack::TransmitFrame(Skb skb) {
  trace::Span span(trace::EventId::kNicTx, trace::HistId::kNicTxNs, skb.len);
  std::lock_guard<smp::SpinLock> guard(nic_lock_);
  hw::PhysicalMemory& mem = machine_.memory();
  uint64_t at = tx_ring_base_ + tx_next_ * hw::kNicDescriptorBytes;
  auto flags = mem.Read(at + 12, 2);
  if (!flags.ok() || (*flags & hw::kNicDescOwned) != 0) {
    (void)skb_pool_.Free(skb.addr);
    return FailedPrecondition("net: tx ring full");
  }
  // Zero-copy tx: the descriptor points straight at the packet-pool buffer.
  // A descriptor that cannot be posted still gives the buffer back.
  auto post = [&]() -> Status {
    SVA_RETURN_IF_ERROR(mem.Write(at, 8, skb.addr));
    SVA_RETURN_IF_ERROR(mem.Write(at + 8, 2, kSkbBufferBytes));
    SVA_RETURN_IF_ERROR(mem.Write(at + 10, 2, skb.len));
    return mem.Write(at + 12, 2, hw::kNicDescOwned);
  };
  if (Status posted = post(); !posted.ok()) {
    (void)skb_pool_.Free(skb.addr);
    return posted;
  }
  tx_next_ = (tx_next_ + 1) % kTxRingSize;
  Status kick = IoWriteReg(hw::NicReg::kCommand,
                           static_cast<uint64_t>(hw::NicCommand::kTxKick));
  // The virtual NIC transmits synchronously on the kick, so the buffer is
  // free to reuse as soon as it returns.
  stats_.tx_frames.fetch_add(1, std::memory_order_relaxed);
  Status freed = skb_pool_.Free(skb.addr);
  SVA_RETURN_IF_ERROR(kick);
  return freed;
}

Result<NetStack::RecvSlice> NetStack::RecvBegin(int sid, uint32_t want) {
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    return NotFound("net: recv on bad socket");
  }
  if (sock->kind == SocketKind::kListener) {
    return InvalidArgument("net: recv on a listener");
  }
  std::lock_guard<smp::SpinLock> guard(sock->lock);
  RecvSlice slice;
  if (sock->rx.empty() || want == 0) {
    return slice;  // len 0: nothing queued (or EOF after FIN).
  }
  RxPacket& front = sock->rx.front();
  slice.skb_addr = front.skb_addr;
  slice.data_addr = front.skb_addr + front.off;
  slice.len = std::min(want, front.len);
  if (sock->kind == SocketKind::kStream && slice.len < front.len) {
    // Partial byte-stream read: the remainder stays queued.
    front.off += slice.len;
    front.len -= slice.len;
    slice.free_skb = false;
  } else {
    // Whole packet consumed (datagrams always pop; the tail past `want` is
    // discarded, as recv(2) does).
    sock->rx.pop_front();
    slice.free_skb = true;
  }
  return slice;
}

Status NetStack::RecvFinish(const RecvSlice& slice) {
  if (slice.free_skb && slice.skb_addr != 0) {
    return skb_pool_.Free(slice.skb_addr);
  }
  return OkStatus();
}

uint32_t NetStack::PollReady(int sid) {
  NetSocket* sock = SocketById(sid);
  if (sock == nullptr) {
    // Gone (closed or never existed): report it as a terminal condition so
    // a stale watch fires once and gets culled instead of hanging a waiter.
    return kReadyErr | kReadyHup;
  }
  std::lock_guard<smp::SpinLock> guard(sock->lock);
  uint32_t mask = 0;
  if (sock->kind == SocketKind::kListener) {
    if (!sock->backlog.empty()) {
      mask |= kReadyIn;  // accept() won't block.
    }
    return mask;
  }
  if (!sock->rx.empty()) {
    mask |= kReadyIn;
  }
  if (sock->peer_fin) {
    // EOF is readable (recv returns 0) and reported as a hangup.
    mask |= kReadyIn | kReadyHup;
  }
  mask |= kReadyOut;  // The virtual tx path never backpressures a frame.
  return mask;
}

}  // namespace sva::net
