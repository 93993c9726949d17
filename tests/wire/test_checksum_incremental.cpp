// Property pin for the RFC 1624 incremental checksum: for IPv4 headers, a
// word-level patch of the stored checksum must be bit-identical to a full
// header recompute, across 10k randomized TTL/DSCP/ECN/identification
// rewrites -- including the +0/-0 corner RFC 1624 warns about, which the
// 0x45 version byte provably excludes for real headers.
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

TEST(DatagramMutators, PatchedWireCacheMatchesFullReencode) {
  util::Rng rng(42);
  for (int round = 0; round < 2'000; ++round) {
    const std::vector<std::uint8_t> payload(16 + rng.next_below(64),
                                            static_cast<std::uint8_t>(round));
    Datagram dgram = make_udp_datagram(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 9),
                                       4242, 123, payload,
                                       rng.next_below(2) != 0 ? Ecn::Ect0 : Ecn::NotEct);
    (void)dgram.wire_view();  // prime the cache, then mutate through it
    ASSERT_TRUE(dgram.wire_cached());

    for (int step = 0; step < 4; ++step) {
      switch (rng.next_below(4)) {
        case 0: dgram.set_ttl(static_cast<std::uint8_t>(rng.next_below(256))); break;
        case 1: dgram.set_ecn(static_cast<Ecn>(rng.next_below(4))); break;
        case 2: dgram.set_dscp(static_cast<std::uint8_t>(rng.next_below(64))); break;
        default:
          dgram.set_identification(static_cast<std::uint16_t>(rng.next_below(65536)));
      }
    }

    // A copy drops the cache, so its encode() is an honest full re-encode.
    const Datagram fresh = dgram;
    ASSERT_FALSE(fresh.wire_cached());
    const auto patched = dgram.encode();
    const auto reencoded = fresh.encode();
    ASSERT_EQ(patched, reencoded) << "round=" << round;

    // And the patched bytes still parse with a valid IP checksum.
    const auto decoded = Datagram::decode(patched);
    ASSERT_TRUE(decoded.has_value()) << (decoded ? "" : decoded.error().message);
    EXPECT_EQ(decoded->ip.ttl, dgram.ip.ttl);
    EXPECT_EQ(decoded->ip.ecn, dgram.ip.ecn);
    EXPECT_EQ(decoded->ip.dscp, dgram.ip.dscp);
    EXPECT_EQ(decoded->ip.identification, dgram.ip.identification);
  }
}

TEST(DatagramMutators, CachedRewritesSumThreeWordsNotTheHeader) {
  // The cost count BENCH_wire.json guards exactly: a full header sum is ten
  // words, an RFC 1624 patch three, and a TTL or ECN rewrite through the
  // wire cache is one patch -- never a re-sum of the header.
  const std::vector<std::uint8_t> header(Ipv4Header::kSize, 0x45);
  std::uint64_t before = checksum_words_summed();
  (void)internet_checksum(header);
  EXPECT_EQ(checksum_words_summed() - before, 10u);
  before = checksum_words_summed();
  (void)checksum_update(0x1234, 0x4011, 0x3f11);
  EXPECT_EQ(checksum_words_summed() - before, 3u);

  Datagram dgram = make_udp_datagram(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 9),
                                     4242, 123, std::vector<std::uint8_t>(48, 1),
                                     Ecn::Ect0);
  (void)dgram.wire_view();
  before = checksum_words_summed();
  dgram.set_ttl(17);
  dgram.set_ecn(Ecn::NotEct);
  EXPECT_EQ(checksum_words_summed() - before, 6u);
  dgram.set_ttl(17);  // unchanged word: nothing to patch
  EXPECT_EQ(checksum_words_summed() - before, 6u);
}

TEST(DatagramMutators, TouchPayloadInvalidatesCache) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  Datagram dgram = make_udp_datagram(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1,
                                     2, payload, Ecn::Ect0);
  (void)dgram.wire_view();
  ASSERT_TRUE(dgram.wire_cached());
  dgram.touch_payload();
  EXPECT_FALSE(dgram.wire_cached());
  dgram.payload.push_back(9);
  dgram.ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + dgram.payload.size());
  const auto wire = dgram.wire_view();
  EXPECT_EQ(wire.size(), Ipv4Header::kSize + dgram.payload.size());
  EXPECT_EQ(wire.back(), 9);
}

TEST(DatagramMutators, PlainFieldWritesStaySafeWhenUncached) {
  // Tests and scenario builders mutate header fields directly; as long as
  // no cache was primed, encode() must reflect every such write.
  Datagram dgram = make_udp_datagram(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1,
                                     2, std::vector<std::uint8_t>{5}, Ecn::NotEct);
  dgram.ip.ttl = 3;
  dgram.ip.ecn = Ecn::Ce;
  ASSERT_FALSE(dgram.wire_cached());
  const auto decoded = Datagram::decode(dgram.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ip.ttl, 3);
  EXPECT_EQ(decoded->ip.ecn, Ecn::Ce);
}

}  // namespace
}  // namespace ecnprobe::wire
