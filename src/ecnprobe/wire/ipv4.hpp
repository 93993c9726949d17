// IPv4 address and header (RFC 791), with the ECN field (RFC 3168) exposed
// as a first-class type. The header codec round-trips the exact 20-byte
// layout so that middlebox modifications, ICMP quotations, and the live
// raw-socket driver all see bit-accurate bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/ecn.hpp"

namespace ecnprobe::wire {

template <class Buffer>
class BasicByteWriter;

/// IPv4 address held in host byte order for arithmetic convenience; the
/// codec converts to network order at the wire boundary.
class Ipv4Address {
public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) : addr_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : addr_((static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
              (static_cast<std::uint32_t>(c) << 8) | d) {}

  /// Parses dotted-quad notation; rejects anything else.
  static util::Expected<Ipv4Address> parse(std::string_view text);

  constexpr std::uint32_t value() const { return addr_; }
  std::string to_string() const;

  constexpr bool is_unspecified() const { return addr_ == 0; }

  /// True if this address lies within prefix/len.
  constexpr bool in_prefix(Ipv4Address prefix, int len) const {
    if (len <= 0) return true;
    if (len >= 32) return addr_ == prefix.addr_;
    const std::uint32_t mask = ~((1u << (32 - len)) - 1);
    return (addr_ & mask) == (prefix.addr_ & mask);
  }

  constexpr auto operator<=>(const Ipv4Address&) const = default;

private:
  std::uint32_t addr_ = 0;
};

/// IP protocol numbers used in this project.
enum class IpProto : std::uint8_t {
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
};

std::string_view to_string(IpProto p);

/// The fixed 20-byte IPv4 header. Options are not modelled (none of the
/// paper's probes use them); IHL is validated on decode and any options
/// bytes are skipped.
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;
  static constexpr std::uint8_t kDefaultTtl = 64;

  std::uint8_t dscp = 0;          ///< upper six bits of the old ToS octet
  Ecn ecn = Ecn::NotEct;          ///< lower two bits: the ECN field
  std::uint16_t total_length = 0; ///< header + payload, bytes
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  ///< in 8-byte units
  std::uint8_t ttl = kDefaultTtl;
  IpProto protocol = IpProto::Udp;
  std::uint16_t header_checksum = 0;  ///< as decoded; recomputed on encode
  Ipv4Address src;
  Ipv4Address dst;

  /// Serialises the 20-byte header with a freshly computed checksum.
  template <class Buffer>
  void encode(BasicByteWriter<Buffer>& out) const;

  /// The former ToS octet: DSCP in the high six bits, ECN in the low two.
  std::uint8_t tos_octet() const {
    return static_cast<std::uint8_t>((dscp << 2) | to_bits(ecn));
  }

  std::string to_string() const;
};

/// Decoded header plus the number of header bytes consumed (IHL*4).
struct Ipv4Decoded {
  Ipv4Header header;
  std::size_t header_len = Ipv4Header::kSize;
  bool checksum_ok = true;
};

util::Expected<Ipv4Decoded> decode_ipv4_header(std::span<const std::uint8_t> data);

}  // namespace ecnprobe::wire
