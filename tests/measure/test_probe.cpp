// Integration tests of the four-way server probe against a small calibrated
// world.
#include "ecnprobe/measure/probe.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

scenario::WorldParams clean_params(std::uint64_t seed = 5) {
  auto p = scenario::WorldParams::small(seed);
  p.server_count = 12;
  p.offline_prob = 0.0;
  p.rate_limited_fraction = 0.0;
  p.greylist_flaky_prob = 0.0;
  p.greylist_dead_prob = 0.0;
  p.ect_udp_firewalled_servers = 0;
  p.ect_required_servers = 0;
  p.ec2_sensitive_servers = 0;
  p.bleach_inter_as_links = 0;
  p.bleach_intra_as_links = 0;
  p.web_server_fraction = 1.0;
  p.web_ecn_fraction = 1.0;
  return p;
}

TEST(ProbeServer, HealthyServerPassesAllFourTests) {
  scenario::World world(clean_params());
  auto& vantage = world.vantage("UGla wired");
  std::optional<ServerResult> result;
  probe_server(vantage, world.servers()[0].address, ProbeOptions{},
               [&](const ServerResult& r) { result = r; });
  world.sim().run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->udp_plain.reachable);
  EXPECT_TRUE(result->udp_ect0.reachable);
  EXPECT_TRUE(result->tcp_plain.connected);
  EXPECT_TRUE(result->tcp_plain.got_response);
  EXPECT_EQ(result->tcp_plain.http_status, 302);
  EXPECT_FALSE(result->tcp_plain.ecn_negotiated);  // did not ask
  EXPECT_TRUE(result->tcp_ecn.connected);
  EXPECT_TRUE(result->tcp_ecn.ecn_negotiated);
}

TEST(ProbeServer, FirewalledServerFailsOnlyEctUdp) {
  auto params = clean_params(6);
  params.ect_udp_firewalled_servers = 1;
  scenario::World world(params);
  const auto firewalled = world.ground_truth_firewalled();
  ASSERT_EQ(firewalled.size(), 1u);
  auto& vantage = world.vantage("EC2 Fra");
  std::optional<ServerResult> result;
  probe_server(vantage, firewalled[0], ProbeOptions{},
               [&](const ServerResult& r) { result = r; });
  world.sim().run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->udp_plain.reachable);
  EXPECT_FALSE(result->udp_ect0.reachable);
  EXPECT_EQ(result->udp_ect0.attempts, 5);
  // Section 4.4: the same server still negotiates ECN over TCP.
  if (result->tcp_plain.got_response) {
    EXPECT_TRUE(result->tcp_ecn.ecn_negotiated);
  }
}

TEST(ProbeServer, NonEcnWebServerConnectsWithoutNegotiating) {
  auto params = clean_params(7);
  params.web_ecn_fraction = 0.0;
  scenario::World world(params);
  auto& vantage = world.vantage("Perkins home");
  std::optional<ServerResult> result;
  probe_server(vantage, world.servers()[1].address, ProbeOptions{},
               [&](const ServerResult& r) { result = r; });
  world.sim().run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->tcp_ecn.connected);
  EXPECT_FALSE(result->tcp_ecn.ecn_negotiated);
  EXPECT_TRUE(result->tcp_ecn.got_response);
}

TEST(ProbeServer, OfflineServerFailsUdpButRstsTcp) {
  auto params = clean_params(8);
  scenario::World world(params);
  world.server(2).ntp_service->set_online(false);
  world.server(2).web->set_enabled(false);
  auto& vantage = world.vantage("EC2 Tok");
  std::optional<ServerResult> result;
  probe_server(vantage, world.servers()[2].address, ProbeOptions{},
               [&](const ServerResult& r) { result = r; });
  world.sim().run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->udp_plain.reachable);
  EXPECT_FALSE(result->udp_ect0.reachable);
  EXPECT_FALSE(result->tcp_plain.got_response);
}

TEST(TraceRunner, ProducesOneResultPerServer) {
  scenario::World world(clean_params(9));
  auto& vantage = world.vantage("UGla wired");
  TraceRunner runner(vantage, world.server_addresses(), ProbeOptions{});
  std::optional<Trace> trace;
  runner.run(1, 42, [&](Trace t) { trace = std::move(t); });
  world.sim().run();
  ASSERT_TRUE(trace);
  EXPECT_EQ(trace->vantage, "UGla wired");
  EXPECT_EQ(trace->batch, 1);
  EXPECT_EQ(trace->index, 42);
  EXPECT_EQ(trace->servers.size(), world.servers().size());
  // Clean world: everything reachable.
  const auto row = analysis::per_trace_reachability({*trace})[0];
  EXPECT_EQ(row.reachable_udp_plain, static_cast<int>(world.servers().size()));
  EXPECT_EQ(row.pct_ect_given_plain, 100.0);
}

TEST(TracerouteRunner, CollectsRepeatedObservations) {
  scenario::World world(clean_params(10));
  auto& vantage = world.vantage("EC2 Vir");
  traceroute::TracerouteOptions options;
  options.timeout = util::SimDuration::millis(300);
  TracerouteRunner runner(vantage, world.server_addresses(), options, 2);
  std::optional<std::vector<TracerouteObservation>> observations;
  runner.run([&](std::vector<TracerouteObservation> obs) { observations = std::move(obs); });
  world.sim().run();
  ASSERT_TRUE(observations);
  EXPECT_EQ(observations->size(), world.servers().size() * 2);
  EXPECT_EQ((*observations)[0].vantage, "EC2 Vir");
  EXPECT_EQ((*observations)[0].repetition, 0);
  EXPECT_EQ((*observations)[1].repetition, 1);
}

}  // namespace
}  // namespace ecnprobe::measure
