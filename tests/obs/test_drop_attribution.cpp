// Drop-attribution ledger tests on crafted mini-nets: each middlebox or
// failure mode must leave exactly one ledger count with the right layer and
// cause -- the property that lets the loss-autopsy table explain every
// failed probe -- and name its hop where hops are reported: the sketched
// `hop:<node>/<cause>` telemetry keys for drops, the flight recorder's event
// node for rewrites.
#include "ecnprobe/obs/ledger.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"
#include "ecnprobe/netsim/policy.hpp"
#include "ecnprobe/obs/export.hpp"

namespace ecnprobe::obs {
namespace {

using netsim::testutil::Chain;
using Cells = std::map<std::pair<std::string, std::string>, std::uint64_t>;

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

  // Sketched telemetry on an exactly-sampled trace: the ledger still counts
  // every drop, and each one also lands under its `hop:<node>/<cause>` key.
  void arm_hop_keys() {
    TelemetryConfig config;
    config.mode = TelemetryMode::Sketched;
    obs.telemetry.arm(config.resolved(1));
    obs.telemetry.begin_trace(0);
  }
  std::uint64_t hop_count(const std::string& key) const {
    const auto counts = obs.telemetry.collect_delta().counts;
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }

  // Stamps the next send with a flight, so each hop that rewrites it
  // leaves an EcnRewritten event naming the node.
  void arm_flight() {
    obs.recorder.arm(64);
    obs.recorder.set_trace(0);
    obs.recorder.begin_flight(/*retransmit=*/false);
  }
  std::vector<std::string> rewrite_nodes() {
    std::vector<std::string> nodes;
    for (const auto& event : obs.recorder.take_since(0)) {
      if (event.type == SpanEvent::EcnRewritten) nodes.emplace_back(event.node.view());
    }
    return nodes;
  }
};

TEST(DropAttribution, GreylistDropIsAttributedToPolicyLayer) {
  ObservedChain chain(2);
  chain.arm_hop_keys();
  netsim::GreylistUdpPolicy::Params params;
  params.flaky_prob = 0.0;
  params.dead_prob = 1.0;  // wedged firewall: every UDP packet greylisted
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::GreylistUdpPolicy>(params));
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct);

  const auto ledger = chain.obs.ledger.aggregate();
  EXPECT_EQ(ledger.drops, (Cells{{{"policy", "greylist"}, 1}}));
  EXPECT_TRUE(ledger.rewrites.empty());
  EXPECT_EQ(chain.hop_count("hop:r1/greylist"), 1u);
}

TEST(DropAttribution, CongestionCeMarkIsOneRewriteRecord) {
  ObservedChain chain(2);
  chain.arm_flight();
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
  const auto ledger = chain.obs.ledger.aggregate();
  EXPECT_TRUE(ledger.drops.empty());
  EXPECT_EQ(ledger.rewrites, (Cells{{{"policy", "ce-marked"}, 1}}));
  EXPECT_EQ(chain.rewrite_nodes(), std::vector<std::string>{"r0"});
}

TEST(DropAttribution, BleachingHopIsOneRewriteRecord) {
  ObservedChain chain(3);
  chain.arm_flight();
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  auto receiver = chain.host_b->open_udp(123);
  wire::Ecn seen = wire::Ecn::Ce;
  receiver->set_receive_handler(
      [&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  chain.send_udp(wire::Ecn::Ect0);

  EXPECT_EQ(seen, wire::Ecn::NotEct);
  EXPECT_EQ(chain.obs.ledger.aggregate().rewrites, (Cells{{{"policy", "bleached"}, 1}}));
  EXPECT_EQ(chain.rewrite_nodes(), std::vector<std::string>{"r1"});
}

TEST(DropAttribution, TtlExpiryIsAttributedToTheExpiringRouter) {
  ObservedChain chain(4);
  chain.arm_hop_keys();
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::NotEct, 123, /*ttl=*/2);

  EXPECT_EQ(chain.obs.ledger.aggregate().drops, (Cells{{{"router", "ttl-expired"}, 1}}));
  EXPECT_EQ(chain.hop_count("hop:r1/ttl-expired"), 1u);  // ttl=2 survives r0
}

TEST(DropAttribution, EctUdpFirewallAndTosFilterCausesAreDistinct) {
  ObservedChain chain(2);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EctUdpDropPolicy>());
  auto receiver = chain.host_b->open_udp(123);
  chain.send_udp(wire::Ecn::Ect0);
  EXPECT_EQ(chain.obs.ledger.aggregate().drops, (Cells{{{"policy", "ect-udp-filter"}, 1}}));

  ObservedChain tos_chain(2);
  tos_chain.arm_hop_keys();
  tos_chain.net.add_egress_policy(tos_chain.host_a_id, 0,
                                  std::make_shared<netsim::TosSensitiveDropPolicy>(1.0));
  auto tos_receiver = tos_chain.host_b->open_udp(123);
  tos_chain.send_udp(wire::Ecn::Ect0);
  EXPECT_EQ(tos_chain.obs.ledger.aggregate().drops, (Cells{{{"policy", "tos-filter"}, 1}}));
  EXPECT_EQ(tos_chain.hop_count("hop:hostA/tos-filter"), 1u);
}

TEST(DropAttribution, NoSocketDeliveryIsAHostLayerDrop) {
  ObservedChain chain(1);
  chain.arm_hop_keys();
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // nobody listening
  EXPECT_EQ(chain.obs.ledger.aggregate().drops, (Cells{{{"host", "no-socket"}, 1}}));
  EXPECT_EQ(chain.hop_count("hop:hostB/no-socket"), 1u);
}

TEST(DropAttribution, ServerDropCountsAndNamesTheAddressUnderItsHopKey) {
  // Probe give-ups pass the server's address; it is text only where
  // sketched telemetry keys it.
  ObservedChain chain(1);
  const wire::Ipv4Address server(11, 0, 0, 7);
  chain.obs.ledger.record_drop(Layer::Measure, DropCause::ProbeTimeout, server);
  EXPECT_EQ(chain.obs.ledger.aggregate().drops, (Cells{{{"measure", "probe-timeout"}, 1}}));
  chain.arm_hop_keys();
  chain.obs.ledger.record_drop(Layer::Measure, DropCause::ProbeTimeout, server);
  EXPECT_EQ(chain.obs.ledger.aggregate().drops, (Cells{{{"measure", "probe-timeout"}, 2}}));
  EXPECT_EQ(chain.hop_count("hop:11.0.0.7/probe-timeout"), 1u);
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
  const auto head = chain.obs.ledger.aggregate();
  chain.obs.ledger.reset();          // a trace boundary: the next slice starts at zero
  chain.send_udp(wire::Ecn::Ect1);   // dropped again, second slice
  chain.send_udp(wire::Ecn::NotEct, /*port=*/9999);  // host-layer drop

  const auto tail = chain.obs.ledger.aggregate();
  EXPECT_EQ(tail.total_drops(), 2u);
  EXPECT_EQ(tail.drops_for_cause("ect-udp-filter"), 1u);

  auto full = head;
  full.merge(tail);
  EXPECT_EQ(full.total_drops(), 3u);
  EXPECT_EQ(full.drops_for_cause("ect-udp-filter"), 2u);

  // The mirror counters are not sliced: they counted all three.
  const auto snap = chain.obs.registry.snapshot();
  const LabelSet ect_udp{{"cause", "ect-udp-filter"}, {"layer", "policy"}};
  EXPECT_EQ(snap.families.at("ecn_drops_total").samples.at(ect_udp).counter, 2u);

  const auto autopsy = render_loss_autopsy(full);
  EXPECT_NE(autopsy.find("ect-udp-filter"), std::string::npos);
  EXPECT_NE(autopsy.find("no-socket"), std::string::npos);
  EXPECT_NE(autopsy.find("total"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::obs
