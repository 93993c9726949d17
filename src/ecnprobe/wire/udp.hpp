// UDP header (RFC 768). The probes of the paper are NTP requests inside UDP
// datagrams whose IP-layer ECN field is the independent variable.
#pragma once

#include <cstdint>
#include <span>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/ipv4.hpp"
#include "ecnprobe/wire/small_bytes.hpp"

namespace ecnprobe::wire {

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    ///< header + payload
  std::uint16_t checksum = 0;  ///< 0 = not computed (legal for IPv4)

  template <class Buffer>
  void encode(BasicByteWriter<Buffer>& out) const;
  static util::Expected<UdpHeader> decode(std::span<const std::uint8_t> data);
};

/// Serialises header+payload with a correct pseudo-header checksum.
SmallBytes encode_udp_segment(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                              std::uint16_t dst_port, std::span<const std::uint8_t> payload);

/// Parsed UDP segment view: header plus the payload bytes that follow it.
struct UdpSegmentView {
  UdpHeader header;
  std::span<const std::uint8_t> payload;
  bool checksum_ok = true;  ///< true when checksum == 0 (unused) or verified
};

util::Expected<UdpSegmentView> decode_udp_segment(Ipv4Address src, Ipv4Address dst,
                                                  std::span<const std::uint8_t> segment);

}  // namespace ecnprobe::wire
