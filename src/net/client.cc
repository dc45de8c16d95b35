#include "src/net/client.h"

#include <algorithm>
#include <cstring>

namespace sva::net {

Status LoopbackClient::Inject(const std::vector<uint8_t>& frame) {
  Status rx = stack_.nic().Receive(frame.data(), frame.size());
  ++frames_sent_;
  if (batch_) {
    // Batch mode: leave the frame in the ring for the next Flush(); only a
    // full ring forces an early drain (as wire backpressure would).
    if (!rx.ok() && rx.code() == StatusCode::kFailedPrecondition) {
      stack_.PumpRx();
      rx = stack_.nic().Receive(frame.data(), frame.size());
    }
    return rx;
  }
  // Deliver whatever landed (including earlier frames) even if this one was
  // tail-dropped by a full ring.
  stack_.PumpRx();
  if (!rx.ok() && rx.code() == StatusCode::kFailedPrecondition) {
    // Ring was full: the driver has now drained it, retry once.
    rx = stack_.nic().Receive(frame.data(), frame.size());
    stack_.PumpRx();
  }
  return rx;
}

Status LoopbackClient::SendDatagram(uint16_t src_port, uint16_t dst_port,
                                    const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxUdpPayload) {
    return InvalidArgument("client: datagram larger than one frame");
  }
  std::vector<uint8_t> frame;
  BuildHeaders(frame, kIpProtoUdp, ip_, kServerIp, src_port, dst_port,
               static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return Inject(frame);
}

Status LoopbackClient::SendMalformedDatagram(uint16_t src_port,
                                             uint16_t dst_port,
                                             uint32_t claimed_payload,
                                             uint32_t actual_payload) {
  std::vector<uint8_t> frame;
  BuildHeaders(frame, kIpProtoUdp, ip_, kServerIp, src_port, dst_port,
               actual_payload, /*stream_flags=*/0, claimed_payload);
  frame.resize(frame.size() + actual_payload, 0xA5);
  return Inject(frame);
}

Result<int> LoopbackClient::OpenStream(uint16_t dst_port) {
  Conn conn;
  conn.local_port = next_ephemeral_++;
  conn.dst_port = dst_port;
  std::vector<uint8_t> frame;
  BuildHeaders(frame, kIpProtoStream, ip_, kServerIp, conn.local_port,
               dst_port, 0, kStreamSyn);
  SVA_RETURN_IF_ERROR(Inject(frame));
  conns_.push_back(conn);
  int index = static_cast<int>(conns_.size()) - 1;
  port_to_conn_[conn.local_port] = index;
  return index;
}

Status LoopbackClient::SendStream(int conn, const uint8_t* data,
                                  uint64_t len) {
  if (conn < 0 || static_cast<size_t>(conn) >= conns_.size()) {
    return InvalidArgument("client: bad connection handle");
  }
  const Conn& c = conns_[static_cast<size_t>(conn)];
  uint64_t sent = 0;
  while (sent < len) {
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(len - sent, kMaxStreamPayload));
    std::vector<uint8_t> frame;
    BuildHeaders(frame, kIpProtoStream, ip_, kServerIp, c.local_port,
                 c.dst_port, chunk);
    frame.insert(frame.end(), data + sent, data + sent + chunk);
    SVA_RETURN_IF_ERROR(Inject(frame));
    sent += chunk;
  }
  return OkStatus();
}

Status LoopbackClient::SendStream(int conn, const std::string& data) {
  return SendStream(conn, reinterpret_cast<const uint8_t*>(data.data()),
                    data.size());
}

Status LoopbackClient::CloseStream(int conn) {
  if (conn < 0 || static_cast<size_t>(conn) >= conns_.size()) {
    return InvalidArgument("client: bad connection handle");
  }
  const Conn& c = conns_[static_cast<size_t>(conn)];
  std::vector<uint8_t> frame;
  BuildHeaders(frame, kIpProtoStream, ip_, kServerIp, c.local_port,
               c.dst_port, 0, kStreamFin);
  return Inject(frame);
}

uint64_t LoopbackClient::Poll() {
  uint64_t consumed = 0;
  for (const std::vector<uint8_t>& frame : stack_.nic().DrainTransmitted()) {
    ++consumed;
    ++frames_received_;
    auto header = ParseHeaders(frame.data(), frame.size());
    if (!header.ok() || header->dst_ip != ip_) {
      continue;  // Not for this host (or mangled); a real NIC would filter.
    }
    uint64_t have = frame.size() - header->payload_offset;
    uint64_t take = std::min<uint64_t>(header->claimed_payload, have);
    const uint8_t* payload = frame.data() + header->payload_offset;
    if (header->protocol == kIpProtoStream) {
      auto it = port_to_conn_.find(header->dst_port);
      if (it != port_to_conn_.end()) {
        conns_[static_cast<size_t>(it->second)].rx.append(
            reinterpret_cast<const char*>(payload), take);
      }
    } else if (header->protocol == kIpProtoUdp) {
      datagrams_.emplace_back(payload, payload + take);
    }
  }
  return consumed;
}

std::string LoopbackClient::TakeStream(int conn) {
  Poll();
  if (conn < 0 || static_cast<size_t>(conn) >= conns_.size()) {
    return "";
  }
  // Copy the bytes out and keep the buffer: a connection's receive buffer
  // then grows once, instead of from empty on every reply. A reply that
  // doubles it past malloc's mmap threshold (128 KB by default) would
  // otherwise map, fault in and unmap fresh pages each time.
  std::string& rx = conns_[static_cast<size_t>(conn)].rx;
  std::string out(rx);
  rx.clear();
  return out;
}

std::vector<std::vector<uint8_t>> LoopbackClient::TakeDatagrams() {
  Poll();
  std::vector<std::vector<uint8_t>> out;
  out.swap(datagrams_);
  return out;
}

}  // namespace sva::net
