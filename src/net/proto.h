// Wire formats for the minikernel network stack: Ethernet II framing, a
// 20-byte IPv4 header with the ones'-complement header checksum, UDP, and
// a minimal stream transport ("stream", IP protocol 6) carrying
// SYN/FIN/DATA segments for the thttpd-style serving path.
//
// The parser deliberately returns the header length fields *as claimed on
// the wire*, unvalidated: trusting them is exactly the packet-parser bug
// class the metapool bounds check catches (the exploit scenario in
// src/exploits). Validation against the actual buffer is the caller's job.
#ifndef SVA_SRC_NET_PROTO_H_
#define SVA_SRC_NET_PROTO_H_

#include <cstdint>
#include <vector>

#include "src/support/status.h"

namespace sva::net {

inline constexpr uint64_t kEthHeaderBytes = 14;
inline constexpr uint64_t kIpHeaderBytes = 20;
inline constexpr uint64_t kUdpHeaderBytes = 8;
inline constexpr uint64_t kStreamHeaderBytes = 8;
inline constexpr uint16_t kEthertypeIpv4 = 0x0800;
inline constexpr uint8_t kIpProtoStream = 6;
inline constexpr uint8_t kIpProtoUdp = 17;

inline constexpr uint32_t kMtu = 1500;  // IP header + transport + payload.
// Largest payload one frame can carry per transport.
inline constexpr uint32_t kMaxUdpPayload =
    kMtu - kIpHeaderBytes - kUdpHeaderBytes;
inline constexpr uint32_t kMaxStreamPayload =
    kMtu - kIpHeaderBytes - kStreamHeaderBytes;

// Stream segment flags.
inline constexpr uint16_t kStreamSyn = 1 << 0;
inline constexpr uint16_t kStreamFin = 1 << 1;

// Parsed view of one frame's headers. Length fields are as claimed by the
// sender and may lie.
struct FrameHeader {
  uint16_t ethertype = 0;
  uint8_t protocol = 0;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t ip_total_length = 0;  // Claimed: IP header + transport + payload.
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  // Claimed payload bytes after the transport header (from the UDP length
  // field or the stream segment length field).
  uint32_t claimed_payload = 0;
  uint16_t stream_flags = 0;
  // Offset of the transport payload from the start of the frame.
  uint32_t payload_offset = 0;
};

// The eth+ip+transport header bytes in front of a `protocol` payload.
uint64_t HeaderBytes(uint8_t protocol);

// Serializes eth+ip+transport headers for `payload_len` payload bytes into
// the HeaderBytes(protocol) bytes at `out` (the caller places the payload
// behind them). `claimed_payload_override`, when nonzero, is written into
// the transport length field instead of the truth — the malformed-packet
// injection knob.
void WriteHeaders(uint8_t* out, uint8_t protocol, uint32_t src_ip,
                  uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                  uint32_t payload_len, uint16_t stream_flags = 0,
                  uint32_t claimed_payload_override = 0);

// WriteHeaders into `out`, resized to the header bytes (the caller appends
// or copies the payload).
void BuildHeaders(std::vector<uint8_t>& out, uint8_t protocol,
                  uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                  uint16_t dst_port, uint32_t payload_len,
                  uint16_t stream_flags = 0,
                  uint32_t claimed_payload_override = 0);

// Parses the headers of a frame of `len` readable bytes. Fails only on
// structural truncation (fewer bytes than the fixed headers), a non-IPv4
// ethertype, an unknown transport, or a corrupt IP header checksum; the
// claimed length fields are returned as-is.
Result<FrameHeader> ParseHeaders(const uint8_t* data, uint64_t len);

// Ones'-complement sum over `len` bytes (IP header checksum).
uint16_t IpChecksum(const uint8_t* data, uint64_t len);

}  // namespace sva::net

#endif  // SVA_SRC_NET_PROTO_H_
