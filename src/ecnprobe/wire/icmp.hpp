// ICMP (RFC 792). The traceroute experiment depends on the error-message
// quotation rule: Time-Exceeded and Destination-Unreachable messages carry
// the IP header (plus at least 8 payload bytes) of the datagram *as the
// router received it*. Comparing the quoted ECN field against the field the
// prober sent reveals where ECT(0) marks are stripped (Section 4.2 of the
// paper; same technique as Bauer et al. and tracebox).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/ipv4.hpp"
#include "ecnprobe/wire/small_bytes.hpp"

namespace ecnprobe::wire {

enum class IcmpType : std::uint8_t {
  EchoReply = 0,
  DestUnreachable = 3,
  EchoRequest = 8,
  TimeExceeded = 11,
};

/// Codes for DestUnreachable.
enum class IcmpUnreachCode : std::uint8_t {
  Net = 0,
  Host = 1,
  Protocol = 2,
  Port = 3,
  AdminProhibited = 13,
};

struct IcmpMessage {
  static constexpr std::size_t kHeaderSize = 8;

  IcmpType type = IcmpType::EchoRequest;
  std::uint8_t code = 0;
  std::uint32_t rest_of_header = 0;  ///< id/seq for echo; unused/zero for errors
  std::vector<std::uint8_t> body;    ///< quoted datagram for errors; data for echo

  /// Serialises with a correct ICMP checksum (plain RFC 1071, no
  /// pseudo-header).
  SmallBytes encode() const;

  bool is_error() const {
    return type == IcmpType::DestUnreachable || type == IcmpType::TimeExceeded;
  }
};

struct IcmpDecoded {
  IcmpMessage message;
  bool checksum_ok = true;
};

util::Expected<IcmpDecoded> decode_icmp_message(std::span<const std::uint8_t> data);

/// Builds the error body required by RFC 792: the offending datagram's IP
/// header followed by the first 8 bytes of its transport payload -- exactly
/// the bytes the router saw, which is what makes ECN-stripping visible.
std::vector<std::uint8_t> make_error_quotation(const Ipv4Header& received_header,
                                               std::span<const std::uint8_t> transport_bytes);

/// Serialises an ICMP error (rest-of-header zero) whose body is
/// make_error_quotation(received_header, transport_bytes): the bytes of
/// that IcmpMessage's encode(), written in one pass without the body's own
/// buffer.
SmallBytes encode_icmp_error(IcmpType type, std::uint8_t code,
                             const Ipv4Header& received_header,
                             std::span<const std::uint8_t> transport_bytes);

/// Parses the quotation inside an ICMP error body: the inner IP header and
/// whatever transport bytes were included. Quotes truncated below the full
/// inner IP header (an RFC 1812 violation routers commit in the wild, and
/// one the chaos layer injects) still parse: the fields that survived are
/// filled in, `header_complete` is false, and `ecn_known` says whether the
/// ToS/ECN octet was among them -- callers must treat the ECN field as
/// unobserved rather than bleached when it is not.
struct Quotation {
  Ipv4Header inner_header;
  std::vector<std::uint8_t> transport_prefix;
  bool header_complete = true;  ///< the full IHL-length inner header was present
  bool ecn_known = true;        ///< the ToS/ECN octet was present
};
util::Expected<Quotation> parse_quotation(std::span<const std::uint8_t> body);

}  // namespace ecnprobe::wire
