// Property pins for the IPv4 header checksum. The RFC 1624 incremental
// update must be bit-identical to a full header recompute, across 10k
// randomized TTL/DSCP/ECN/identification rewrites -- including the +0/-0
// corner RFC 1624 warns about, which the 0x45 version byte provably
// excludes for real headers. And a Datagram, whose header fields the
// datapath rewrites in place, must encode exactly like one built fresh
// from the final fields, with a checksum that verifies.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/checksum.hpp"
#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/ipv4.hpp"

namespace ecnprobe::wire {
namespace {

std::uint16_t word_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

void put_word(std::vector<std::uint8_t>& b, std::size_t off, std::uint16_t v) {
  b[off] = static_cast<std::uint8_t>(v >> 8);
  b[off + 1] = static_cast<std::uint8_t>(v);
}

/// A random but valid 20-byte IPv4 header with a correct stored checksum.
std::vector<std::uint8_t> random_header(util::Rng& rng) {
  std::vector<std::uint8_t> h(Ipv4Header::kSize);
  h[0] = 0x45;  // the version/IHL byte that makes RFC 1624 exact here
  for (std::size_t i = 1; i < h.size(); ++i) {
    h[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  put_word(h, 10, 0);
  put_word(h, 10, internet_checksum(h));
  return h;
}

TEST(ChecksumIncremental, MatchesFullRecomputeAcross10kRandomRewrites) {
  util::Rng rng(20150417);
  for (int round = 0; round < 10'000; ++round) {
    auto header = random_header(rng);
    // Rewrite one of the words the datapath mutates: the ToS word (DSCP and
    // ECN live in its low byte), identification, or the TTL/protocol word.
    const std::size_t offsets[] = {0, 4, 8};
    const std::size_t off = offsets[rng.next_below(3)];
    const std::uint16_t old_word = word_at(header, off);
    std::uint16_t new_word;
    if (off == 0) {
      // Keep the version byte -- only the ToS octet can change in flight.
      new_word = static_cast<std::uint16_t>((0x45u << 8) | rng.next_below(256));
    } else {
      new_word = static_cast<std::uint16_t>(rng.next_below(65536));
    }

    const std::uint16_t patched =
        checksum_update(word_at(header, 10), old_word, new_word);

    put_word(header, off, new_word);
    put_word(header, 10, 0);
    const std::uint16_t recomputed = internet_checksum(header);
    ASSERT_EQ(patched, recomputed)
        << "round=" << round << " off=" << off << " old=" << old_word
        << " new=" << new_word;
    put_word(header, 10, recomputed);  // chain: next round patches this header
  }
}

TEST(ChecksumIncremental, ChainedPatchesStayExact) {
  // A packet crossing many routers gets its checksum patched repeatedly;
  // errors must not accumulate over a long rewrite chain.
  util::Rng rng(7);
  auto header = random_header(rng);
  for (int hop = 0; hop < 1000; ++hop) {
    const std::uint16_t old_word = word_at(header, 8);
    const auto ttl = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint16_t new_word =
        static_cast<std::uint16_t>((ttl << 8) | (old_word & 0xff));
    put_word(header, 10, checksum_update(word_at(header, 10), old_word, new_word));
    put_word(header, 8, new_word);
  }
  auto copy = header;
  put_word(copy, 10, 0);
  EXPECT_EQ(word_at(header, 10), internet_checksum(copy));
  // A receiver summing the full header (checksum included) must get zero.
  EXPECT_EQ(internet_checksum(header), 0);
}

TEST(ChecksumIncremental, CountsThreeWordsPerPatchAndTenPerHeaderSum) {
  // The cost count BENCH_wire.json guards exactly: an RFC 1624 patch sums
  // three words, a full header sum ten. A datagram's TTL or ECN rewrite is
  // a field write that sums none; encode() sums the header once.
  const std::vector<std::uint8_t> header(Ipv4Header::kSize, 0x45);
  std::uint64_t before = checksum_words_summed();
  (void)internet_checksum(header);
  EXPECT_EQ(checksum_words_summed() - before, 10u);
  before = checksum_words_summed();
  (void)checksum_update(0x1234, 0x4011, 0x3f11);
  EXPECT_EQ(checksum_words_summed() - before, 3u);

  Datagram dgram = make_udp_datagram(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 9),
                                     4242, 123, std::vector<std::uint8_t>(20, 1),
                                     Ecn::Ect0);
  before = checksum_words_summed();
  dgram.ip.ttl = 17;
  dgram.ip.ecn = Ecn::NotEct;
  EXPECT_EQ(checksum_words_summed() - before, 0u);
  (void)dgram.encode();
  EXPECT_EQ(checksum_words_summed() - before, 10u);
}

// The name dates from when a Datagram cached its wire bytes and patched
// them per rewrite; the property holds without the cache: after random
// TTL/ECN/DSCP/id writes and payload edits, encode() equals a freshly
// built datagram's bytes and decodes with a good checksum.
TEST(DatagramMutators, PatchedWireCacheMatchesFullReencode) {
  const Ipv4Address src(10, 0, 0, 1);
  const Ipv4Address dst(10, 0, 9, 9);
  util::Rng rng(42);
  for (int round = 0; round < 2'000; ++round) {
    const std::vector<std::uint8_t> data(16 + rng.next_below(64),
                                         static_cast<std::uint8_t>(round));
    Datagram dgram = make_udp_datagram(src, dst, 4242, 123, data,
                                       rng.next_below(2) != 0 ? Ecn::Ect0 : Ecn::NotEct);
    // The fields a fresh build must be given, tracked beside the writes.
    std::uint8_t ttl = dgram.ip.ttl;
    Ecn ecn = dgram.ip.ecn;
    std::uint8_t dscp = 0;
    std::uint16_t id = 0;
    std::vector<std::uint8_t> segment = dgram.payload;
    for (int step = 0; step < 6; ++step) {
      switch (rng.next_below(5)) {
        case 0: dgram.ip.ttl = ttl = static_cast<std::uint8_t>(rng.next_below(256)); break;
        case 1: dgram.ip.ecn = ecn = static_cast<Ecn>(rng.next_below(4)); break;
        case 2: dgram.ip.dscp = dscp = static_cast<std::uint8_t>(rng.next_below(64)); break;
        case 3:
          dgram.ip.identification = id = static_cast<std::uint16_t>(rng.next_below(65536));
          break;
        default:
          // A payload edit (a chaos policy's corruption or truncation): the
          // stored total_length goes stale, and encode() must not care.
          if (rng.next_below(2) != 0) {
            const auto at = static_cast<std::size_t>(rng.next_below(segment.size()));
            segment[at] = dgram.payload[at] = static_cast<std::uint8_t>(rng.next_below(256));
          } else {
            segment.pop_back();
            dgram.payload.pop_back();
          }
      }
    }

    Datagram fresh;
    fresh.ip.src = src;
    fresh.ip.dst = dst;
    fresh.ip.protocol = IpProto::Udp;
    fresh.ip.ttl = ttl;
    fresh.ip.ecn = ecn;
    fresh.ip.dscp = dscp;
    fresh.ip.identification = id;
    fresh.payload = segment;
    const auto wire = dgram.encode();
    ASSERT_EQ(wire, fresh.encode()) << "round=" << round;

    const auto decoded = Datagram::decode(wire);  // refuses a bad IP checksum
    ASSERT_TRUE(decoded.has_value()) << (decoded ? "" : decoded.error().message);
    EXPECT_EQ(decoded->ip.total_length, Ipv4Header::kSize + segment.size());
    EXPECT_EQ(decoded->ip.ttl, ttl);
    EXPECT_EQ(decoded->ip.ecn, ecn);
    EXPECT_EQ(decoded->ip.dscp, dscp);
    EXPECT_EQ(decoded->ip.identification, id);
    EXPECT_EQ(decoded->payload, segment);
  }
}

TEST(DatagramMutators, TouchPayloadInvalidatesCache) {
  // Payload edits after an earlier encode, with total_length left stale:
  // each encode() serialises the payload as it is now.
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  Datagram dgram = make_udp_datagram(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1,
                                     2, payload, Ecn::Ect0);
  const auto before = dgram.encode();
  EXPECT_EQ(before.size(), Ipv4Header::kSize + dgram.payload.size());

  dgram.payload.push_back(9);
  auto wire = dgram.encode();
  EXPECT_EQ(wire.size(), Ipv4Header::kSize + dgram.payload.size());
  EXPECT_EQ(wire.back(), 9);

  dgram.payload.front() ^= 0xff;
  dgram.payload.pop_back();
  wire = dgram.encode();
  const auto decoded = Datagram::decode(wire);
  ASSERT_TRUE(decoded.has_value()) << (decoded ? "" : decoded.error().message);
  EXPECT_EQ(decoded->ip.total_length, Ipv4Header::kSize + dgram.payload.size());
  EXPECT_EQ(decoded->payload, dgram.payload);
  EXPECT_NE(wire, before);
}

TEST(DatagramMutators, PlainFieldWritesStaySafeWhenUncached) {
  // The datapath, tests and scenario builders all mutate header fields
  // directly: encode() must reflect every such write, even after an
  // earlier encode of the same datagram.
  Datagram dgram = make_udp_datagram(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1,
                                     2, std::vector<std::uint8_t>{5}, Ecn::NotEct);
  (void)dgram.encode();
  dgram.ip.ttl = 3;
  dgram.ip.ecn = Ecn::Ce;
  const auto decoded = Datagram::decode(dgram.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ip.ttl, 3);
  EXPECT_EQ(decoded->ip.ecn, Ecn::Ce);
}

}  // namespace
}  // namespace ecnprobe::wire
