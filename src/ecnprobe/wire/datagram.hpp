// A Datagram is the unit that traverses the simulated network: a decoded
// IPv4 header plus the raw transport-segment bytes. Keeping the header
// decoded lets routers and middleboxes inspect/modify TTL and ECN as plain
// field writes; `encode()` produces the bit-accurate wire bytes whenever
// they are needed (flight-recorder taps, ICMP quotations, pcap export, the
// live driver), with the header checksum summed once there. A Datagram
// carries no serialisation of its own: packet captures keep one record
// per packet, so the record is only the header, the payload and the
// flight id (56 bytes). A payload of up to 23 bytes (a traceroute probe's
// UDP segment, a bare TCP ACK or FIN) lives inside the record.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/icmp.hpp"
#include "ecnprobe/wire/ipv4.hpp"
#include "ecnprobe/wire/small_bytes.hpp"

namespace ecnprobe::wire {

struct Datagram {
  Ipv4Header ip;
  SmallBytes payload;  ///< transport segment (UDP/TCP/ICMP bytes)

  /// Flight-recorder correlation id. Simulation metadata only: never
  /// serialised by encode(), left 0 by decode(). 0 means "not tracked".
  std::uint32_t flight = 0;

  /// Full wire serialisation (lengths filled in, header checksum summed).
  std::vector<std::uint8_t> encode() const;

  /// Parses wire bytes back into a Datagram. Fails on truncation or a bad
  /// IP checksum.
  static util::Expected<Datagram> decode(std::span<const std::uint8_t> bytes);

  std::string summary() const;
};

/// Builds a UDP datagram with the given ECN mark; fills in lengths and all
/// checksums.
Datagram make_udp_datagram(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                           std::uint16_t dst_port, std::span<const std::uint8_t> payload,
                           Ecn ecn, std::uint8_t ttl = Ipv4Header::kDefaultTtl);

/// Builds a TCP datagram around an already-populated TCP header. Data
/// segments on a negotiated-ECN connection pass Ecn::Ect0; SYNs must be
/// not-ECT (RFC 3168 section 6.1.1).
Datagram make_tcp_datagram(Ipv4Address src, Ipv4Address dst,
                           const struct TcpHeader& tcp,
                           std::span<const std::uint8_t> payload, Ecn ecn,
                           std::uint8_t ttl = Ipv4Header::kDefaultTtl);

/// Builds an ICMP datagram (errors and echo). ICMP is always not-ECT.
Datagram make_icmp_datagram(Ipv4Address src, Ipv4Address dst, const IcmpMessage& msg,
                            std::uint8_t ttl = Ipv4Header::kDefaultTtl);

/// Builds the ICMP Time-Exceeded error a router sends when TTL expires,
/// quoting the received datagram per RFC 792/1812.
Datagram make_time_exceeded(Ipv4Address router_addr, const Datagram& received);

/// Builds an ICMP Destination-Unreachable error quoting the received
/// datagram.
Datagram make_dest_unreachable(Ipv4Address sender_addr, const Datagram& received,
                               IcmpUnreachCode code);

}  // namespace ecnprobe::wire
