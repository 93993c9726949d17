// RTP (RFC 3550) and the ECN feedback defined for it by RFC 6679 -- the
// protocol machinery the paper's introduction motivates: interactive media
// over UDP that wants to use ECN, provided the path actually carries ECT
// marks. The RTCP side is reduced to the two messages the ECN mechanism
// needs: the per-interval ECN summary report and a receiver report carrying
// loss and jitter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/wire/bytes.hpp"

namespace ecnprobe::rtp {

/// RFC 3550 fixed header (no CSRC list, no extension payload).
struct RtpHeader {
  static constexpr std::size_t kSize = 12;
  static constexpr std::uint8_t kVersion = 2;

  bool marker = false;
  std::uint8_t payload_type = 96;  ///< dynamic PT, as WebRTC uses
  std::uint16_t sequence = 0;
  std::uint32_t timestamp = 0;  ///< media clock units
  std::uint32_t ssrc = 0;

  void encode(wire::ByteWriter& out) const;
};

struct RtpPacket {
  RtpHeader header;
  std::vector<std::uint8_t> payload;

  std::vector<std::uint8_t> encode() const;
  static util::Expected<RtpPacket> decode(std::span<const std::uint8_t> data);
};

/// RFC 6679 section 5.1-style ECN summary: how the receiver saw the ECN
/// field across an interval. The sender uses it to (a) verify that ECT
/// marks survive the path before trusting ECN, and (b) react to CE.
struct EcnSummary {
  std::uint32_t ssrc = 0;            ///< media source being reported on
  std::uint32_t ext_highest_seq = 0; ///< extended highest sequence received
  std::uint32_t ect0_count = 0;
  std::uint32_t ect1_count = 0;
  std::uint32_t ce_count = 0;
  std::uint32_t not_ect_count = 0;
  std::uint32_t lost_packets = 0;
  std::uint32_t jitter_us = 0;       ///< RFC 3550 interarrival jitter

  std::uint32_t received_total() const {
    return ect0_count + ect1_count + ce_count + not_ect_count;
  }

  std::vector<std::uint8_t> encode() const;
  static util::Expected<EcnSummary> decode(std::span<const std::uint8_t> data);
};

}  // namespace ecnprobe::rtp
