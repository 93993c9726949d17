#include "ecnprobe/wire/udp.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::wire {
namespace {

const Ipv4Address kSrc(10, 0, 0, 1);
const Ipv4Address kDst(11, 0, 0, 2);

TEST(Udp, SegmentRoundTrip) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  const auto segment = encode_udp_segment(kSrc, kDst, 12345, 123, payload);
  ASSERT_EQ(segment.size(), UdpHeader::kSize + 5);

  const auto view = decode_udp_segment(kSrc, kDst, segment);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->header.src_port, 12345);
  EXPECT_EQ(view->header.dst_port, 123);
  EXPECT_EQ(view->header.length, segment.size());
  EXPECT_TRUE(view->checksum_ok);
  ASSERT_EQ(view->payload.size(), 5u);
  EXPECT_EQ(view->payload[4], 5);
}

TEST(Udp, ChecksumCoversAddresses) {
  const std::uint8_t payload[] = {9};
  const auto segment = encode_udp_segment(kSrc, kDst, 1, 2, payload);
  // Same bytes "received" with a different source address: checksum fails.
  const auto view = decode_udp_segment(Ipv4Address(10, 0, 0, 9), kDst, segment);
  ASSERT_TRUE(view);
  EXPECT_FALSE(view->checksum_ok);
}

TEST(Udp, PayloadCorruptionDetected) {
  const std::uint8_t payload[] = {1, 2, 3};
  auto segment = encode_udp_segment(kSrc, kDst, 1, 2, payload);
  segment[segment.size() - 1] ^= 0x01;
  const auto view = decode_udp_segment(kSrc, kDst, segment);
  ASSERT_TRUE(view);
  EXPECT_FALSE(view->checksum_ok);
}

TEST(Udp, ZeroChecksumMeansUnverified) {
  const std::uint8_t payload[] = {1};
  auto segment = encode_udp_segment(kSrc, kDst, 1, 2, payload);
  segment[6] = 0;
  segment[7] = 0;  // checksum = 0: "not computed"
  const auto view = decode_udp_segment(kSrc, kDst, segment);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view->checksum_ok);
}

TEST(Udp, DecodeRejectsTruncationAndBadLength) {
  const std::uint8_t tiny[4] = {};
  EXPECT_FALSE(UdpHeader::decode(std::span<const std::uint8_t>(tiny, 4)));

  // length field below header size
  const std::uint8_t bad_len[] = {0, 1, 0, 2, 0, 4, 0, 0};
  EXPECT_FALSE(UdpHeader::decode(bad_len));

  // segment shorter than its length field claims
  const std::uint8_t short_seg[] = {0, 1, 0, 2, 0, 50, 0, 0};
  EXPECT_FALSE(decode_udp_segment(kSrc, kDst, short_seg));
}

TEST(Udp, EmptyPayloadIsLegal) {
  const auto segment = encode_udp_segment(kSrc, kDst, 5, 6, {});
  const auto view = decode_udp_segment(kSrc, kDst, segment);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view->payload.empty());
  EXPECT_TRUE(view->checksum_ok);
}

TEST(Udp, PropertyRandomPayloadsRoundTrip) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> payload(rng.next_below(600));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto sp = static_cast<std::uint16_t>(1 + rng.next_below(65535));
    const auto dp = static_cast<std::uint16_t>(1 + rng.next_below(65535));
    const auto segment = encode_udp_segment(kSrc, kDst, sp, dp, payload);
    const auto view = decode_udp_segment(kSrc, kDst, segment);
    ASSERT_TRUE(view);
    EXPECT_TRUE(view->checksum_ok);
    EXPECT_EQ(view->header.src_port, sp);
    EXPECT_EQ(view->header.dst_port, dp);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), view->payload.begin(),
                           view->payload.end()));
  }
}

}  // namespace
}  // namespace ecnprobe::wire
