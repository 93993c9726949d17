// Vantage plumbing and campaign-level churn behaviour.
#include <gtest/gtest.h>

#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/netsim/pcap.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

scenario::WorldParams tiny() {
  auto p = scenario::WorldParams::small(71);
  p.server_count = 10;
  p.offline_prob = 0.0;
  p.rate_limited_fraction = 0.0;
  p.greylist_flaky_prob = 0.0;
  p.greylist_dead_prob = 0.0;
  // No pathological servers: churn arithmetic below assumes a clean pool.
  p.ect_udp_firewalled_servers = 0;
  p.ect_required_servers = 0;
  p.ec2_sensitive_servers = 0;
  return p;
}

TEST(Vantage, CaptureRecordsProbeTrafficBothWays) {
  scenario::World world(tiny());
  auto& vantage = world.vantage("Perkins home");
  vantage.capture().clear();
  bool done = false;
  probe_server(vantage, world.servers()[0].address, ProbeOptions{},
               [&](const ServerResult&) { done = true; });
  world.sim().run();
  ASSERT_TRUE(done);
  int tx = 0;
  int rx = 0;
  for (const auto& packet : vantage.capture().packets()) {
    (packet.dir == netsim::Direction::Tx ? tx : rx)++;
  }
  // Four probes' worth of traffic: NTP x2, HTTP x2 (handshake + data).
  EXPECT_GE(tx, 4);
  EXPECT_GE(rx, 4);
}

TEST(Vantage, CaptureExportsAsPcap) {
  scenario::World world(tiny());
  auto& vantage = world.vantage("EC2 Ire");
  bool done = false;
  probe_server(vantage, world.servers()[1].address, ProbeOptions{},
               [&](const ServerResult&) { done = true; });
  world.sim().run();
  ASSERT_TRUE(done);
  std::ostringstream os(std::ios::binary);
  const auto written = netsim::write_pcap(os, vantage.capture());
  EXPECT_EQ(written, vantage.capture().packets().size());
  EXPECT_GT(written, 0u);
}

TEST(Vantage, TracerouteEngineIsLazyAndSingle) {
  scenario::World world(tiny());
  auto& vantage = world.vantage("EC2 Syd");
  auto& tracer1 = vantage.tracer();
  auto& tracer2 = vantage.tracer();
  EXPECT_EQ(&tracer1, &tracer2);  // one ICMP owner per host
}

TEST(CampaignChurn, DepartedServersStayGoneWithinCampaign) {
  auto params = tiny();
  params.server_count = 40;
  params.batch2_departed_fraction = 0.4;  // exaggerate for the test
  params.offline_prob = 0.0;

  CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});
  plan.entries.push_back({"UGla wired", 2, 2});
  const auto traces = scenario::run_campaign(params, plan).traces;
  ASSERT_EQ(traces.size(), 3u);

  const auto rows = analysis::per_trace_reachability(traces);
  const int before = rows[0].reachable_udp_plain;
  const int batch2_first = rows[1].reachable_udp_plain;
  const int batch2_second = rows[2].reachable_udp_plain;
  EXPECT_EQ(before, 40);            // batch 1: everyone present
  EXPECT_LT(batch2_first, before);  // churn bites in batch 2
  // Departure is permanent: the same servers stay gone.
  EXPECT_EQ(batch2_first, batch2_second);
  std::set<std::uint32_t> gone_first;
  std::set<std::uint32_t> gone_second;
  for (const auto& s : traces[1].servers) {
    if (!s.udp_plain.reachable) gone_first.insert(s.server.value());
  }
  for (const auto& s : traces[2].servers) {
    if (!s.udp_plain.reachable) gone_second.insert(s.server.value());
  }
  EXPECT_EQ(gone_first, gone_second);
}

TEST(CampaignChurn, OfflineDrawsVaryPerTrace) {
  auto params = tiny();
  params.server_count = 40;
  params.offline_prob = 0.3;
  params.batch2_departed_fraction = 0.0;
  CampaignPlan plan;
  plan.entries.push_back({"EC2 Fra", 1, 3});
  const auto traces = scenario::run_campaign(params, plan).traces;
  ASSERT_EQ(traces.size(), 3u);
  // Different servers offline in different traces (transient, not fixed).
  std::set<std::uint32_t> off0;
  std::set<std::uint32_t> off1;
  for (const auto& s : traces[0].servers) {
    if (!s.udp_plain.reachable) off0.insert(s.server.value());
  }
  for (const auto& s : traces[1].servers) {
    if (!s.udp_plain.reachable) off1.insert(s.server.value());
  }
  EXPECT_FALSE(off0.empty());
  EXPECT_NE(off0, off1);
}

TEST(ProbeOrder, UdpTestsPrecedeTcpTests) {
  // The paper's sequence matters (the greylist mechanism depends on it):
  // verify via capture timestamps that NTP traffic precedes HTTP traffic.
  scenario::World world(tiny());
  auto& vantage = world.vantage("UGla wless");
  vantage.capture().clear();
  bool done = false;
  probe_server(vantage, world.servers()[2].address, ProbeOptions{},
               [&](const ServerResult&) { done = true; });
  world.sim().run();
  ASSERT_TRUE(done);
  std::optional<util::SimTime> first_udp;
  std::optional<util::SimTime> first_tcp;
  for (const auto& packet : vantage.capture().packets()) {
    if (packet.dgram.ip.protocol == wire::IpProto::Udp && !first_udp) {
      first_udp = packet.time;
    }
    if (packet.dgram.ip.protocol == wire::IpProto::Tcp && !first_tcp) {
      first_tcp = packet.time;
    }
  }
  ASSERT_TRUE(first_udp && first_tcp);
  EXPECT_LT(*first_udp, *first_tcp);
}

}  // namespace
}  // namespace ecnprobe::measure
