#include "src/net/proto.h"

#include <cstring>

#include "src/support/strings.h"

namespace sva::net {

namespace {

void Put16(uint8_t* at, uint16_t v) {
  at[0] = static_cast<uint8_t>(v >> 8);
  at[1] = static_cast<uint8_t>(v);
}

void Put32(uint8_t* at, uint32_t v) {
  at[0] = static_cast<uint8_t>(v >> 24);
  at[1] = static_cast<uint8_t>(v >> 16);
  at[2] = static_cast<uint8_t>(v >> 8);
  at[3] = static_cast<uint8_t>(v);
}

uint16_t Get16(const uint8_t* at) {
  return static_cast<uint16_t>(at[0] << 8 | at[1]);
}

uint32_t Get32(const uint8_t* at) {
  return static_cast<uint32_t>(at[0]) << 24 | static_cast<uint32_t>(at[1]) << 16 |
         static_cast<uint32_t>(at[2]) << 8 | at[3];
}

}  // namespace

uint16_t IpChecksum(const uint8_t* data, uint64_t len) {
  uint32_t sum = 0;
  for (uint64_t i = 0; i + 1 < len; i += 2) {
    sum += Get16(data + i);
  }
  if (len % 2 != 0) {
    sum += static_cast<uint32_t>(data[len - 1]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

uint64_t HeaderBytes(uint8_t protocol) {
  return kEthHeaderBytes + kIpHeaderBytes +
         (protocol == kIpProtoUdp ? kUdpHeaderBytes : kStreamHeaderBytes);
}

void BuildHeaders(std::vector<uint8_t>& out, uint8_t protocol,
                  uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                  uint16_t dst_port, uint32_t payload_len,
                  uint16_t stream_flags, uint32_t claimed_payload_override) {
  out.resize(HeaderBytes(protocol));
  WriteHeaders(out.data(), protocol, src_ip, dst_ip, src_port, dst_port,
               payload_len, stream_flags, claimed_payload_override);
}

void WriteHeaders(uint8_t* out, uint8_t protocol, uint32_t src_ip,
                  uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                  uint32_t payload_len, uint16_t stream_flags,
                  uint32_t claimed_payload_override) {
  uint64_t transport = protocol == kIpProtoUdp ? kUdpHeaderBytes
                                               : kStreamHeaderBytes;
  uint32_t claimed = claimed_payload_override != 0 ? claimed_payload_override
                                                   : payload_len;
  std::memset(out, 0, HeaderBytes(protocol));
  uint8_t* eth = out;
  // Placeholder locally-administered MACs; the simulation routes by IP.
  std::memset(eth, 0x02, 12);
  Put16(eth + 12, kEthertypeIpv4);

  uint8_t* ip = eth + kEthHeaderBytes;
  ip[0] = 0x45;  // Version 4, IHL 5 words.
  Put16(ip + 2, static_cast<uint16_t>(kIpHeaderBytes + transport + claimed));
  ip[8] = 64;  // TTL.
  ip[9] = protocol;
  Put32(ip + 12, src_ip);
  Put32(ip + 16, dst_ip);
  Put16(ip + 10, 0);
  Put16(ip + 10, IpChecksum(ip, kIpHeaderBytes));

  uint8_t* tp = ip + kIpHeaderBytes;
  Put16(tp, src_port);
  Put16(tp + 2, dst_port);
  if (protocol == kIpProtoUdp) {
    Put16(tp + 4, static_cast<uint16_t>(kUdpHeaderBytes + claimed));
    Put16(tp + 6, 0);  // UDP checksum optional over the virtual wire.
  } else {
    Put16(tp + 4, stream_flags);
    Put16(tp + 6, static_cast<uint16_t>(claimed));
  }
}

Result<FrameHeader> ParseHeaders(const uint8_t* data, uint64_t len) {
  if (len < kEthHeaderBytes + kIpHeaderBytes) {
    return InvalidArgument("net: truncated frame");
  }
  FrameHeader h;
  h.ethertype = Get16(data + 12);
  if (h.ethertype != kEthertypeIpv4) {
    return InvalidArgument(StrCat("net: unknown ethertype ", h.ethertype));
  }
  const uint8_t* ip = data + kEthHeaderBytes;
  if ((ip[0] >> 4) != 4 || (ip[0] & 0x0F) != 5) {
    return InvalidArgument("net: bad IP version/IHL");
  }
  if (IpChecksum(ip, kIpHeaderBytes) != 0) {
    return InvalidArgument("net: IP header checksum mismatch");
  }
  h.ip_total_length = Get16(ip + 2);
  h.protocol = ip[9];
  h.src_ip = Get32(ip + 12);
  h.dst_ip = Get32(ip + 16);

  uint64_t transport;
  if (h.protocol == kIpProtoUdp) {
    transport = kUdpHeaderBytes;
  } else if (h.protocol == kIpProtoStream) {
    transport = kStreamHeaderBytes;
  } else {
    return InvalidArgument(StrCat("net: unknown transport ", h.protocol));
  }
  if (len < kEthHeaderBytes + kIpHeaderBytes + transport) {
    return InvalidArgument("net: truncated transport header");
  }
  const uint8_t* tp = ip + kIpHeaderBytes;
  h.src_port = Get16(tp);
  h.dst_port = Get16(tp + 2);
  if (h.protocol == kIpProtoUdp) {
    uint16_t udp_len = Get16(tp + 4);
    h.claimed_payload =
        udp_len >= kUdpHeaderBytes ? udp_len - kUdpHeaderBytes : 0;
  } else {
    h.stream_flags = Get16(tp + 4);
    h.claimed_payload = Get16(tp + 6);
  }
  h.payload_offset =
      static_cast<uint32_t>(kEthHeaderBytes + kIpHeaderBytes + transport);
  return h;
}

}  // namespace sva::net
