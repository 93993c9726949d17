// Parameterized world-level invariants across random seeds: whatever world
// is drawn, the measurement pipeline's outputs must satisfy the properties
// listed in DESIGN.md section 7.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ecnprobe/analysis/differential.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

class WorldSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
protected:
  static WorldParams params(std::uint64_t seed) {
    auto p = WorldParams::small(seed);
    p.server_count = 30;
    return p;
  }
};

TEST_P(WorldSeedSweep, CampaignInvariantsHold) {
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Sin", 2, 2});
  const auto traces = run_campaign(params(GetParam()), plan).traces;
  ASSERT_EQ(traces.size(), 4u);

  const auto rows = analysis::per_trace_reachability(traces);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& row = rows[t];
    // Percentages bounded.
    EXPECT_GE(row.pct_ect_given_plain, 0.0);
    EXPECT_LE(row.pct_ect_given_plain, 100.0);
    EXPECT_GE(row.pct_plain_given_ect, 0.0);
    EXPECT_LE(row.pct_plain_given_ect, 100.0);
    // Counts bounded by the pool size.
    EXPECT_LE(row.reachable_udp_plain, 30);
    EXPECT_LE(row.reachable_tcp, 30);
    // ECN negotiation implies TCP connection.
    EXPECT_LE(row.negotiated_ecn_tcp, row.reachable_tcp);
    for (const auto& s : traces[t].servers) {
      // The retry discipline: 1..5 attempts whenever a UDP probe ran.
      EXPECT_GE(s.udp_plain.attempts, 1);
      EXPECT_LE(s.udp_plain.attempts, 5);
      EXPECT_GE(s.udp_ect0.attempts, 1);
      EXPECT_LE(s.udp_ect0.attempts, 5);
      // Success on attempt k < 5 means it did not exhaust the budget.
      if (s.udp_plain.reachable) {
        EXPECT_LE(s.udp_plain.attempts, 5);
      }
      // ECN negotiated implies connected.
      if (s.tcp_ecn.ecn_negotiated) {
        EXPECT_TRUE(s.tcp_ecn.connected);
      }
      // An HTTP response implies the handshake completed.
      if (s.tcp_plain.got_response) {
        EXPECT_TRUE(s.tcp_plain.connected);
      }
    }
  }
}

TEST_P(WorldSeedSweep, FirewalledServersAlwaysRediscovered) {
  auto p = params(GetParam());
  // Isolate the firewall signal from every transient mechanism.
  p.offline_prob = 0.0;
  p.rate_limited_fraction = 0.0;
  p.greylist_flaky_prob = 0.0;
  p.greylist_dead_prob = 0.0;
  World world(p);
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"EC2 Tok", 2, 2});
  const auto traces = run_campaign(p, plan).traces;
  const auto diffs = analysis::per_server_differential(traces);
  const auto persistent =
      analysis::persistent_failures(diffs, {"Perkins home", "EC2 Tok"}, 50.0);
  std::set<std::uint32_t> found;
  for (const auto& addr : persistent) found.insert(addr.value());
  for (const auto& addr : world.ground_truth_firewalled()) {
    EXPECT_TRUE(found.contains(addr.value()))
        << "missed firewalled server " << addr.to_string() << " at seed "
        << GetParam();
  }
}

TEST_P(WorldSeedSweep, TracerouteInvariantsHold) {
  World world(params(GetParam()));
  traceroute::TracerouteOptions options;
  options.timeout = util::SimDuration::millis(300);
  // One vantage suffices for the per-hop invariants.
  measure::TracerouteRunner runner(world.vantage("EC2 Fra"),
                                   world.server_addresses(), options, 1);
  std::vector<measure::TracerouteObservation> observations;
  runner.run([&](std::vector<measure::TracerouteObservation> obs) {
    observations = std::move(obs);
  });
  world.sim().run();
  ASSERT_EQ(observations.size(), world.servers().size());

  for (const auto& obs : observations) {
    int last_ttl = 0;
    for (const auto& hop : obs.path.hops) {
      EXPECT_EQ(hop.ttl, last_ttl + 1);  // contiguous TTL probing
      last_ttl = hop.ttl;
      if (!hop.responded) continue;
      // Routers never *add* marks: a quoted field is the sent codepoint or
      // a downgrade to not-ECT (no CE appears without an AQM).
      EXPECT_TRUE(hop.quoted_ecn == hop.sent_ecn ||
                  hop.quoted_ecn == wire::Ecn::NotEct)
          << "hop invented a codepoint at seed " << GetParam();
    }
  }
  const auto analysis = analysis::analyze_hops(observations, world.ip2as());
  EXPECT_EQ(analysis.ce_marks_seen, 0u);
  EXPECT_LE(analysis.strip_locations_at_boundary,
            analysis.strip_locations - analysis.strip_locations_unattributed);
}

TEST_P(WorldSeedSweep, ResponsesNeverArriveEctMarked) {
  // NTP responses are sent not-ECT and nothing on the path may upgrade
  // them: the capture at the vantage must never show an ECT/CE response.
  World world(params(GetParam()));
  auto& vantage = world.vantage("UGla wired");
  vantage.capture().clear();
  measure::TraceRunner runner(vantage, world.server_addresses(),
                              measure::ProbeOptions{});
  bool done = false;
  runner.run(1, 0, [&](measure::Trace) { done = true; });
  world.sim().run();
  ASSERT_TRUE(done);
  for (const auto& packet : vantage.capture().packets()) {
    if (packet.dir != netsim::Direction::Rx) continue;
    if (packet.dgram.ip.protocol != wire::IpProto::Udp) continue;
    EXPECT_NE(packet.dgram.ip.ecn, wire::Ecn::Ect0);
    EXPECT_NE(packet.dgram.ip.ecn, wire::Ecn::Ect1);
    EXPECT_NE(packet.dgram.ip.ecn, wire::Ecn::Ce);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldSeedSweep,
                         ::testing::Values(3ull, 1234ull, 777777ull, 2015ull));

}  // namespace
}  // namespace ecnprobe::scenario
