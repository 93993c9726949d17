// Packet-record tests: a Datagram holds only its decoded header, its
// payload and its flight id, so its wire bytes are whatever encode() makes
// of those fields at the moment it is called -- a copy, a decode or a
// later field write can never see stale bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/tcp.hpp"

namespace ecnprobe::wire {
namespace {

TEST(ArenaPackets, CachedWireViewEqualsFreshEncode) {
  // What a flight tap records is encode() at the tap: the same bytes every
  // time, and the same bytes as the datagram rebuilt from its fields.
  const std::vector<std::uint8_t> payload{0xde, 0xad, 0xbe, 0xef};
  const Datagram udp = make_udp_datagram(Ipv4Address(192, 0, 2, 1),
                                         Ipv4Address(198, 51, 100, 7), 40000, 123, payload,
                                         Ecn::Ect0, 17);
  const auto wire = udp.encode();
  EXPECT_EQ(udp.encode(), wire);
  Datagram rebuilt;
  rebuilt.ip = udp.ip;
  rebuilt.payload = udp.payload;
  EXPECT_EQ(rebuilt.encode(), wire);
  EXPECT_EQ(wire.size(), udp.ip.total_length);
}

TEST(ArenaPackets, PooledRoundTripPreservesEveryField) {
  TcpHeader tcp;
  tcp.src_port = 443;
  tcp.dst_port = 50123;
  tcp.seq = 0x01020304;
  tcp.ack = 0x0a0b0c0d;
  tcp.flags.syn = true;
  tcp.flags.ece = true;
  tcp.flags.cwr = true;
  tcp.window = 65535;
  Datagram dgram = make_tcp_datagram(Ipv4Address(10, 1, 2, 3), Ipv4Address(10, 9, 8, 7),
                                     tcp, {}, Ecn::NotEct);
  dgram.ip.identification = 0x4242;

  const auto wire = dgram.encode();
  const auto decoded = Datagram::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ip.src, dgram.ip.src);
  EXPECT_EQ(decoded->ip.dst, dgram.ip.dst);
  EXPECT_EQ(decoded->ip.ttl, dgram.ip.ttl);
  EXPECT_EQ(decoded->ip.ecn, dgram.ip.ecn);
  EXPECT_EQ(decoded->ip.identification, 0x4242);
  EXPECT_EQ(decoded->payload, dgram.payload);
  // The re-encode of the decode is the original wire image.
  EXPECT_EQ(decoded->encode(), wire);
}

TEST(ArenaPackets, CopiedDatagramReencodesAfterDirectMutation) {
  // A copy is an independent record: a field write to it shows in its own
  // encode() and never in the original's.
  const Datagram original = make_udp_datagram(Ipv4Address(9, 9, 9, 9),
                                              Ipv4Address(8, 8, 8, 8), 1, 2,
                                              std::vector<std::uint8_t>{1}, Ecn::Ect0);
  const auto original_wire = original.encode();
  Datagram copy = original;
  copy.ip.ttl = 1;
  const auto decoded = Datagram::decode(copy.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ip.ttl, 1);
  EXPECT_EQ(original.encode(), original_wire);
  const auto original_decoded = Datagram::decode(original_wire);
  ASSERT_TRUE(original_decoded.has_value());
  EXPECT_EQ(original_decoded->ip.ttl, Ipv4Header::kDefaultTtl);
}

}  // namespace
}  // namespace ecnprobe::wire
