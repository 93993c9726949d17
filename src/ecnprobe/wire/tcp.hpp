// TCP header (RFC 793) with the RFC 3168 ECN flags (ECE, CWR) and the
// RFC 3540 NS bit. The paper's TCP experiment hinges on two packets: the
// ECN-setup SYN (ECE+CWR set) and the ECN-setup SYN-ACK (ECE set, CWR
// clear); helpers for both classifications live here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/ipv4.hpp"
#include "ecnprobe/wire/small_bytes.hpp"

namespace ecnprobe::wire {

/// TCP flag bits in header order (high to low: NS is bit 8 in the
/// data-offset/flags word).
struct TcpFlags {
  bool ns = false;
  bool cwr = false;
  bool ece = false;
  bool urg = false;
  bool ack = false;
  bool psh = false;
  bool rst = false;
  bool syn = false;
  bool fin = false;

  std::uint16_t to_bits() const;
  static TcpFlags from_bits(std::uint16_t bits);
  std::string to_string() const;

  bool operator==(const TcpFlags&) const = default;
};

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;
  std::uint16_t urgent = 0;
  std::vector<std::uint8_t> options;  ///< raw option bytes, padded to 4n

  /// RFC 3168 section 6.1.1: a SYN with both ECE and CWR set.
  bool is_ecn_setup_syn() const {
    return flags.syn && !flags.ack && flags.ece && flags.cwr;
  }
  /// RFC 3168 section 6.1.1: a SYN-ACK with ECE set and CWR clear.
  bool is_ecn_setup_syn_ack() const {
    return flags.syn && flags.ack && flags.ece && !flags.cwr;
  }

  std::size_t header_len() const { return kMinSize + options.size(); }

  template <class Buffer>
  void encode(BasicByteWriter<Buffer>& out) const;

  std::string to_string() const;
};

struct TcpDecoded {
  TcpHeader header;
  std::size_t header_len = TcpHeader::kMinSize;
};

util::Expected<TcpDecoded> decode_tcp_header(std::span<const std::uint8_t> data);

/// Builds the 4-byte MSS option (kind 2) carried on SYN segments.
std::vector<std::uint8_t> make_mss_option(std::uint16_t mss);

/// Scans a TCP options blob for an MSS option (kind 2); handles NOP/EOL and
/// skips unknown options by their length byte. nullopt when absent or
/// malformed.
std::optional<std::uint16_t> find_mss_option(std::span<const std::uint8_t> options);

/// Serialises header+payload with a correct pseudo-header checksum.
SmallBytes encode_tcp_segment(Ipv4Address src, Ipv4Address dst, const TcpHeader& header,
                              std::span<const std::uint8_t> payload);

struct TcpSegmentView {
  TcpHeader header;
  std::span<const std::uint8_t> payload;
  bool checksum_ok = true;
};

util::Expected<TcpSegmentView> decode_tcp_segment(Ipv4Address src, Ipv4Address dst,
                                                  std::span<const std::uint8_t> segment);

}  // namespace ecnprobe::wire
