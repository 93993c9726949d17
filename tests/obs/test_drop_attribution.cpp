// Drop-attribution ledger tests on crafted mini-nets: each middlebox or
// failure mode must leave exactly one ledger record with the right layer,
// cause, and hop -- the property that lets the loss-autopsy table explain
// every failed probe.
#include "ecnprobe/obs/ledger.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"
#include "ecnprobe/netsim/policy.hpp"
#include "ecnprobe/obs/export.hpp"

namespace ecnprobe::obs {
namespace {

using netsim::testutil::Chain;

// A chain with a test-private Observability, so records from other tests
// (or the process-wide default) can't leak in.
struct ObservedChain : Chain {
  Observability obs;
  explicit ObservedChain(int n_routers) : Chain(n_routers) {
    net.set_observability(&obs);
  }
  void send_udp(wire::Ecn ecn, std::uint16_t port = 123,
                std::uint8_t ttl = wire::Ipv4Header::kDefaultTtl) {
    auto socket = host_a->open_udp();
    socket->send(host_b->address(), port, {}, ecn, ttl);
    sim.run();
  }
};

TEST(DropAttribution, GreylistDropIsAttributedToPolicyLayer) {
  ObservedChain chain(2);
  netsim::GreylistUdpPolicy::Params params;
  params.flaky_prob = 0.0;
  params.dead_prob = 1.0;  // wedged firewall: every UDP packet greylisted
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::GreylistUdpPolicy>(params));
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct);

  ASSERT_EQ(chain.obs.ledger.drops().size(), 1u);
  const auto& record = chain.obs.ledger.drops()[0];
  EXPECT_EQ(record.layer, Layer::Policy);
  EXPECT_EQ(record.cause, DropCause::Greylist);
  EXPECT_EQ(record.node, "r1");
  EXPECT_TRUE(chain.obs.ledger.rewrites().empty());
}

TEST(DropAttribution, CongestionCeMarkIsOneRewriteRecord) {
  ObservedChain chain(2);
  // RFC 3168 AQM: always mark, never drop -- the packet survives but its
  // codepoint changes, which is a rewrite record, not a drop.
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::CongestionPolicy>(1.0, 0.0));
  auto receiver = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::NotEct;
  receiver->set_receive_handler(
      [&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  chain.send_udp(wire::Ecn::Ect0);

  EXPECT_EQ(seen, wire::Ecn::Ce);
  EXPECT_TRUE(chain.obs.ledger.drops().empty());
  ASSERT_EQ(chain.obs.ledger.rewrites().size(), 1u);
  const auto& record = chain.obs.ledger.rewrites()[0];
  EXPECT_EQ(record.layer, Layer::Policy);
  EXPECT_EQ(record.cause, RewriteCause::CeMarked);
  EXPECT_EQ(record.node, "r0");
}

TEST(DropAttribution, BleachingHopIsOneRewriteRecord) {
  ObservedChain chain(3);
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  auto receiver = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::Ce;
  receiver->set_receive_handler(
      [&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  chain.send_udp(wire::Ecn::Ect0);

  EXPECT_EQ(seen, wire::Ecn::NotEct);
  ASSERT_EQ(chain.obs.ledger.rewrites().size(), 1u);
  const auto& record = chain.obs.ledger.rewrites()[0];
  EXPECT_EQ(record.cause, RewriteCause::Bleached);
  EXPECT_EQ(record.node, "r1");
}

TEST(DropAttribution, TtlExpiryIsAttributedToTheExpiringRouter) {
  ObservedChain chain(4);
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct, 123, /*ttl=*/2);

  ASSERT_EQ(chain.obs.ledger.drops().size(), 1u);
  const auto& record = chain.obs.ledger.drops()[0];
  EXPECT_EQ(record.layer, Layer::Router);
  EXPECT_EQ(record.cause, DropCause::TtlExpired);
  EXPECT_EQ(record.node, "r1");  // ttl=2 survives r0, expires at r1
}

TEST(DropAttribution, EctUdpFirewallAndTosFilterCausesAreDistinct) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);
  ASSERT_EQ(chain.obs.ledger.drops().size(), 1u);
  EXPECT_EQ(chain.obs.ledger.drops()[0].cause, DropCause::EctUdpFilter);

  ObservedChain tos_chain(2);
  tos_chain.net.add_egress_policy(tos_chain.host_a_id, 0,
                                  std::make_shared<netsim::TosSensitiveDropPolicy>(1.0));
  auto tos_receiver = tos_chain.host_b->open_udp(123);
  tos_chain.send_udp(wire::Ecn::Ect0);
  ASSERT_EQ(tos_chain.obs.ledger.drops().size(), 1u);
  EXPECT_EQ(tos_chain.obs.ledger.drops()[0].cause, DropCause::TosFilter);
  EXPECT_EQ(tos_chain.obs.ledger.drops()[0].node, "hostA");
}

TEST(DropAttribution, NoSocketDeliveryIsAHostLayerDrop) {
  ObservedChain chain(1);
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // nobody listening
  ASSERT_EQ(chain.obs.ledger.drops().size(), 1u);
  EXPECT_EQ(chain.obs.ledger.drops()[0].layer, Layer::Host);
  EXPECT_EQ(chain.obs.ledger.drops()[0].cause, DropCause::NoSocket);
  EXPECT_EQ(chain.obs.ledger.drops()[0].node, "hostB");
}

TEST(DropAttribution, TraceIndexStampsRecords) {
  ObservedChain chain(1);
  chain.obs.ledger.set_trace(7);
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);
  ASSERT_EQ(chain.obs.ledger.drops().size(), 1u);
  EXPECT_EQ(chain.obs.ledger.drops()[0].trace, 7);
}

TEST(DropAttribution, RecordsMirrorIntoCounterFamilies) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);

  const auto snap = chain.obs.registry.snapshot();
  ASSERT_TRUE(snap.families.contains("ecn_rewrites_total"));
  ASSERT_TRUE(snap.families.contains("ecn_drops_total"));
  const LabelSet bleach{{"cause", "bleached"}, {"layer", "policy"}};
  EXPECT_EQ(snap.families.at("ecn_rewrites_total").samples.at(bleach).counter, 1u);
  const LabelSet nosock{{"cause", "no-socket"}, {"layer", "host"}};
  EXPECT_EQ(snap.families.at("ecn_drops_total").samples.at(nosock).counter, 1u);
}

TEST(DropAttribution, AggregateSlicesAndAutopsyTotalsReconcile) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);   // dropped by the firewall
  const auto mark = chain.obs.ledger.drops().size();
  chain.send_udp(wire::Ecn::Ect1);   // dropped again, second slice
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // host-layer drop

  const auto full = chain.obs.ledger.aggregate();
  EXPECT_EQ(full.total_drops(), 3u);
  EXPECT_EQ(full.drops_for_cause("ect-udp-filter"), 2u);

  const auto tail = chain.obs.ledger.aggregate(mark, 0);
  EXPECT_EQ(tail.total_drops(), 2u);
  EXPECT_EQ(tail.drops_for_cause("ect-udp-filter"), 1u);

  const auto autopsy = render_loss_autopsy(full);
  EXPECT_NE(autopsy.find("ect-udp-filter"), std::string::npos);
  EXPECT_NE(autopsy.find("no-socket"), std::string::npos);
  EXPECT_NE(autopsy.find("total"), std::string::npos);
}

TEST(DropAttribution, TruncateKeepsEarlierRowsCapacityAndCounters) {
  Observability obs;
  obs.ledger.record_drop(Layer::Router, DropCause::TtlExpired, "r1");
  obs.ledger.record_rewrite(Layer::Policy, RewriteCause::Bleached, "r1");
  obs.ledger.record_drop(Layer::Router, DropCause::TtlExpired, "r2");
  obs.ledger.record_drop(Layer::Host, DropCause::NoSocket, "h1");
  obs.ledger.record_rewrite(Layer::Policy, RewriteCause::Bleached, "r2");
  const auto capacity = obs.ledger.drops().capacity();

  obs.ledger.truncate(1, 5);  // past the end: rewrites stay as they are
  ASSERT_EQ(obs.ledger.drops().size(), 1u);
  EXPECT_EQ(obs.ledger.drops()[0].node, "r1");
  EXPECT_EQ(obs.ledger.drops().capacity(), capacity);
  EXPECT_EQ(obs.ledger.rewrites().size(), 2u);
  obs.ledger.truncate(1, 1);
  ASSERT_EQ(obs.ledger.rewrites().size(), 1u);
  EXPECT_EQ(obs.ledger.rewrites()[0].node, "r1");

  // The mirror counters counted every row when it was recorded.
  const auto snap = obs.registry.snapshot();
  const LabelSet ttl{{"cause", "ttl-expired"}, {"layer", "router"}};
  EXPECT_EQ(snap.families.at("ecn_drops_total").samples.at(ttl).counter, 2u);
  const LabelSet bleach{{"cause", "bleached"}, {"layer", "policy"}};
  EXPECT_EQ(snap.families.at("ecn_rewrites_total").samples.at(bleach).counter, 2u);
}

}  // namespace
}  // namespace ecnprobe::obs
