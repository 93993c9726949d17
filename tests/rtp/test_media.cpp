// The RFC 6679 media-session lifecycle over the simulated network: ECN
// initiation, verification, fallback on firewalls and bleachers, and
// CE-driven rate adaptation -- the application behaviour the paper's
// measurements de-risk.
#include "ecnprobe/rtp/media.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"

namespace ecnprobe::rtp {
namespace {

using namespace ecnprobe::util::literals;
using netsim::testutil::Chain;

struct MediaFixture {
  Chain chain;
  MediaReceiver receiver;
  MediaSender sender;

  explicit MediaFixture(MediaSender::Config sender_config = {},
                        netsim::LinkParams link = {})
      : chain(2, 1.0, link),
        receiver(*chain.host_b, MediaReceiver::Config{}),
        sender(*chain.host_a, chain.host_b->address(), 5004, sender_config) {}

  void run_for(util::SimDuration duration) {
    sender.start();
    chain.sim.run_until(chain.sim.now() + duration);
    sender.stop();
    receiver.stop();
    chain.sim.run();  // drain in-flight packets; nothing re-arms now
  }
};

TEST(Media, CleanPathVerifiesEcnAndStreams) {
  MediaFixture f;
  f.run_for(3_s);
  EXPECT_EQ(f.sender.ecn_state(), MediaSender::EcnState::Capable);
  EXPECT_TRUE(f.sender.stats().verified);
  EXPECT_FALSE(f.sender.stats().fell_back);
  EXPECT_GT(f.sender.stats().packets_sent, 100u);
  EXPECT_GT(f.receiver.stats().packets_received, 100u);
  // Everything arrived ECT(0)-marked.
  EXPECT_EQ(f.receiver.stats().not_ect, 0u);
  EXPECT_GT(f.receiver.stats().ect0, 0u);
  EXPECT_GT(f.sender.stats().feedback_reports, 10u);
}

TEST(Media, EcnDisabledSendsNotEct) {
  MediaSender::Config config;
  config.attempt_ecn = false;
  MediaFixture f(config);
  f.run_for(1_s);
  EXPECT_EQ(f.sender.ecn_state(), MediaSender::EcnState::Disabled);
  EXPECT_EQ(f.receiver.stats().ect0, 0u);
  EXPECT_GT(f.receiver.stats().not_ect, 0u);
}

TEST(Media, BleachedPathFallsBackToNotEct) {
  MediaFixture f;
  // Bleacher on the path: marks arrive as not-ECT.
  f.chain.net.add_egress_policy(f.chain.routers[0], 1,
                                std::make_shared<netsim::EcnBleachPolicy>(1.0));
  f.run_for(3_s);
  // Verification sees not-ECT arrivals and falls back: ECN feedback would
  // be blind on this path (RFC 6679 section 7.2.1).
  EXPECT_EQ(f.sender.ecn_state(), MediaSender::EcnState::Failed);
  EXPECT_TRUE(f.sender.stats().fell_back);
  // The session keeps flowing regardless.
  EXPECT_GT(f.receiver.stats().packets_received, 100u);
}

TEST(Media, EctDroppingFirewallTriggersTimeoutFallback) {
  MediaFixture f;
  // The paper's firewall: ECT-marked UDP is silently dropped.
  f.chain.net.add_egress_policy(f.chain.routers[1], 1,
                                std::make_shared<netsim::EctUdpDropPolicy>());
  f.run_for(5_s);
  EXPECT_EQ(f.sender.ecn_state(), MediaSender::EcnState::Failed);
  EXPECT_TRUE(f.sender.stats().fell_back);
  // After fallback the not-ECT media passes the firewall: the receiver
  // got packets even though every ECT probe died.
  EXPECT_GT(f.receiver.stats().packets_received, 50u);
  EXPECT_EQ(f.receiver.stats().ect0, 0u);
  EXPECT_GT(f.receiver.stats().not_ect, 0u);
}

TEST(Media, CeMarksDriveRateDown) {
  MediaFixture f;
  // Congested bottleneck marking 20% of ECT packets CE.
  f.chain.net.add_egress_policy(f.chain.routers[0], 1,
                                std::make_shared<netsim::CongestionPolicy>(0.2, 0.2));
  f.run_for(5_s);
  EXPECT_EQ(f.sender.ecn_state(), MediaSender::EcnState::Capable);
  EXPECT_GT(f.receiver.stats().ce, 0u);
  EXPECT_GT(f.sender.stats().ce_reported, 0u);
  EXPECT_GT(f.sender.stats().rate_decreases, 0);
  // Rate backed off from the start rate under persistent CE.
  EXPECT_LT(f.sender.current_bitrate_bps(), 600'000.0);
  // And crucially: CE marking caused no media loss.
  EXPECT_EQ(f.receiver.stats().lost, 0u);
}

TEST(Media, LossDrivesRateDownWithoutEcn) {
  MediaSender::Config config;
  config.attempt_ecn = false;
  netsim::LinkParams lossy;
  lossy.loss_rate = 0.1;
  MediaFixture f(config, lossy);
  f.run_for(5_s);
  EXPECT_GT(f.sender.stats().loss_reported, 0u);
  EXPECT_GT(f.sender.stats().rate_decreases, 0);
  EXPECT_GT(f.receiver.stats().lost, 0u);
}

TEST(Media, CleanPathRampsRateUp) {
  MediaFixture f;
  f.run_for(5_s);
  EXPECT_GT(f.sender.stats().rate_increases, 10);
  EXPECT_GT(f.sender.current_bitrate_bps(), 600'000.0);
  const auto& history = f.sender.stats().rate_history;
  ASSERT_GT(history.size(), 2u);
  EXPECT_GT(history.back().second, history.front().second);
}

TEST(Media, ReceiverTracksLossFromSequenceGaps) {
  netsim::LinkParams lossy;
  lossy.loss_rate = 0.25;
  MediaFixture f({}, lossy);
  f.run_for(3_s);
  const auto& stats = f.receiver.stats();
  ASSERT_GT(stats.packets_received, 20u);
  EXPECT_GT(stats.lost, 0u);
  // Loss estimate is in the right ballpark for two 25%-lossy links
  // (survival 0.56): lost/(lost+received) ~ 0.44.
  const double loss_rate = static_cast<double>(stats.lost) /
                           static_cast<double>(stats.lost + stats.packets_received);
  EXPECT_NEAR(loss_rate, 0.44, 0.15);
}

TEST(Media, JitterReflectsLinkJitter) {
  netsim::LinkParams smooth;
  MediaFixture calm({}, smooth);
  calm.run_for(2_s);

  netsim::LinkParams bumpy;
  bumpy.jitter = 30_ms;
  MediaFixture rough({}, bumpy);
  rough.run_for(2_s);

  EXPECT_GT(rough.receiver.stats().jitter_us, calm.receiver.stats().jitter_us);
  EXPECT_GT(rough.receiver.stats().jitter_us, 1000u);  // well above 1 ms
}

TEST(Media, ReceiverHandlesSequenceWraparound) {
  // Feed hand-crafted RTP straight at the receiver, with sequence numbers
  // crossing the 16-bit boundary; the extended-sequence logic must not
  // report phantom loss.
  Chain chain(1);
  MediaReceiver receiver(*chain.host_b, MediaReceiver::Config{});
  auto sock = chain.host_a->open_udp();
  std::uint16_t seqs[] = {65533, 65534, 65535, 0, 1, 2};
  std::uint32_t ts = 0;
  for (const auto seq : seqs) {
    RtpPacket packet;
    packet.header.sequence = seq;
    packet.header.timestamp = ts;
    packet.header.ssrc = 7;
    packet.payload.assign(100, 0);
    const auto bytes = packet.encode();
    sock->send(chain.host_b->address(), 5004, bytes, wire::Ecn::NotEct);
    // Bounded advance: the receiver's report timer re-arms forever, so a
    // full run() would never drain.
    chain.sim.run_until(chain.sim.now() + 20_ms);
    ts += 3000;
  }
  receiver.stop();
  chain.sim.run();
  EXPECT_EQ(receiver.stats().packets_received, 6u);
  EXPECT_EQ(receiver.stats().lost, 0u);  // wrap is not loss
}

TEST(Media, ReceiverCountsGapAcrossWraparound) {
  Chain chain(1);
  MediaReceiver receiver(*chain.host_b, MediaReceiver::Config{});
  auto sock = chain.host_a->open_udp();
  // 65534 then 2: three packets (65535, 0, 1) went missing.
  for (const std::uint16_t seq : {std::uint16_t{65534}, std::uint16_t{2}}) {
    RtpPacket packet;
    packet.header.sequence = seq;
    packet.header.ssrc = 7;
    packet.payload.assign(100, 0);
    const auto bytes = packet.encode();
    sock->send(chain.host_b->address(), 5004, bytes, wire::Ecn::NotEct);
    chain.sim.run_until(chain.sim.now() + 20_ms);
  }
  receiver.stop();
  chain.sim.run();
  EXPECT_EQ(receiver.stats().packets_received, 2u);
  EXPECT_EQ(receiver.stats().lost, 3u);
}

TEST(Media, MalformedRtpIgnored) {
  Chain chain(1);
  MediaReceiver receiver(*chain.host_b, MediaReceiver::Config{});
  auto sock = chain.host_a->open_udp();
  const std::uint8_t junk[] = {0x00, 0x01, 0x02};  // wrong version, too short
  sock->send(chain.host_b->address(), 5004, junk, wire::Ecn::NotEct);
  chain.sim.run_until(chain.sim.now() + 20_ms);
  receiver.stop();
  chain.sim.run();
  EXPECT_EQ(receiver.stats().packets_received, 0u);
}

}  // namespace
}  // namespace ecnprobe::rtp
