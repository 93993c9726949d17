// End-to-end: a small campaign through the calibrated world reproduces the
// paper's qualitative findings -- the full pipeline the benches run at paper
// scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "ecnprobe/analysis/differential.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

WorldParams campaign_params() {
  auto p = WorldParams::small(33);
  p.server_count = 30;
  p.ect_udp_firewalled_servers = 2;
  p.ect_required_servers = 1;
  p.ec2_sensitive_servers = 1;
  p.offline_prob = 0.05;
  return p;
}

measure::CampaignPlan tiny_plan() {
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"McQuistin home", 1, 2});
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  plan.entries.push_back({"EC2 Tok", 2, 2});
  return plan;
}

struct CampaignTest : ::testing::Test {
  World world{campaign_params()};
  std::vector<measure::Trace> traces;

  void SetUp() override { traces = run_campaign(world.params(), tiny_plan()).traces; }
};

TEST_F(CampaignTest, ProducesPlannedTraceCount) {
  ASSERT_EQ(traces.size(), 10u);
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.servers.size(), 30u);
  }
}

TEST_F(CampaignTest, MostServersReachableBothWays) {
  const auto summary = analysis::summarize_reachability(traces);
  // Availability ~95%, so plain reachability is high.
  EXPECT_GT(summary.mean_reachable_udp_plain, 20.0);
  // ECT reachability given plain is high but below 100% (2 firewalled of 30).
  EXPECT_GT(summary.mean_pct_ect_given_plain, 80.0);
  EXPECT_LT(summary.mean_pct_ect_given_plain, 100.0);
}

TEST_F(CampaignTest, FirewalledServersShowPersistentDifferential) {
  const auto diffs = analysis::per_server_differential(traces);
  std::vector<std::string> vantages;
  for (const auto& trace : traces) {
    if (std::find(vantages.begin(), vantages.end(), trace.vantage) == vantages.end()) {
      vantages.push_back(trace.vantage);
    }
  }
  const auto persistent = analysis::persistent_failures(diffs, vantages, 50.0);
  std::set<std::uint32_t> truth;
  for (const auto& addr : world.ground_truth_firewalled()) truth.insert(addr.value());
  // Every ground-truth firewalled server is rediscovered by the analysis
  // (it may also catch an unlucky transient, but must find at least these).
  int found = 0;
  for (const auto& addr : persistent) {
    if (truth.contains(addr.value())) ++found;
  }
  EXPECT_EQ(found, static_cast<int>(truth.size()));
}

TEST_F(CampaignTest, EctRequiredServerReachableOnlyWithEct) {
  const PoolServer* oddball = nullptr;
  for (const auto& server : world.servers()) {
    if (server.ect_required) oddball = &server;
  }
  ASSERT_NE(oddball, nullptr);
  int plain_ok = 0;
  int ect_ok = 0;
  for (const auto& trace : traces) {
    for (const auto& s : trace.servers) {
      if (s.server != oddball->address) continue;
      plain_ok += s.udp_plain.reachable ? 1 : 0;
      ect_ok += s.udp_ect0.reachable ? 1 : 0;
    }
  }
  EXPECT_EQ(plain_ok, 0);
  EXPECT_GT(ect_ok, 0);
}

TEST_F(CampaignTest, Ec2SensitiveServerFailsPlainUdpOnlyFromEc2) {
  const PoolServer* phoenix = nullptr;
  for (const auto& server : world.servers()) {
    if (server.ec2_sensitive) phoenix = &server;
  }
  ASSERT_NE(phoenix, nullptr);
  int home_plain_ok = 0;
  int home_plain_total = 0;
  int ec2_plain_ok = 0;
  int ec2_plain_total = 0;
  for (const auto& trace : traces) {
    const bool is_ec2 = trace.vantage.rfind("EC2", 0) == 0;
    for (const auto& s : trace.servers) {
      if (s.server != phoenix->address) continue;
      if (is_ec2) {
        ++ec2_plain_total;
        ec2_plain_ok += s.udp_plain.reachable ? 1 : 0;
      } else {
        ++home_plain_total;
        home_plain_ok += s.udp_plain.reachable ? 1 : 0;
      }
    }
  }
  ASSERT_GT(ec2_plain_total, 0);
  ASSERT_GT(home_plain_total, 0);
  EXPECT_EQ(ec2_plain_ok, 0);        // EC2's not-ECT UDP is filtered
  EXPECT_GT(home_plain_ok, 0);       // homes are fine
}

TEST_F(CampaignTest, TcpEcnNegotiationTracksServerCapability) {
  // Every server that negotiated in a trace must be web_ecn in ground truth.
  std::map<std::uint32_t, const PoolServer*> by_addr;
  for (const auto& server : world.servers()) by_addr[server.address.value()] = &server;
  for (const auto& trace : traces) {
    for (const auto& s : trace.servers) {
      if (s.tcp_ecn.connected && s.tcp_ecn.ecn_negotiated) {
        EXPECT_TRUE(by_addr.at(s.server.value())->web_ecn);
      }
      if (s.tcp_plain.got_response) {
        EXPECT_TRUE(by_addr.at(s.server.value())->runs_web);
      }
    }
  }
}

TEST_F(CampaignTest, TraceroutesDetectBleachersButNoCe) {
  traceroute::TracerouteOptions options;
  options.timeout = util::SimDuration::millis(300);
  const auto observations = world.run_traceroutes(2, options);
  EXPECT_EQ(observations.size(), 13u * 30u * 2u);
  const auto analysis = analysis::analyze_hops(observations, world.ip2as());
  EXPECT_GT(analysis.total_hops, 0u);
  // Bleachers exist, so some strips show; most hops still pass.
  EXPECT_GT(analysis.pct_hops_passing(), 50.0);
  EXPECT_EQ(analysis.ce_marks_seen, 0u);  // matches the paper: no CE observed
}

// The traceroute phase keeps no drop-ledger rows: each vantage's pass
// truncates the ledger back to where the phase began. Its drops still count
// in the registry as they are recorded.
std::uint64_t registry_count(World& world, const std::string& family,
                             const obs::LabelSet& labels) {
  const auto snap = world.obs().registry.snapshot();
  const auto f = snap.families.find(family);
  if (f == snap.families.end()) return 0;
  const auto sample = f->second.samples.find(labels);
  return sample == f->second.samples.end() ? 0 : sample->second.counter;
}

const obs::LabelSet kTtlExpired{{"cause", "ttl-expired"}, {"layer", "router"}};
const obs::LabelSet kBleached{{"cause", "bleached"}, {"layer", "policy"}};

std::vector<measure::TracerouteObservation> run_short_traceroutes(World& world) {
  traceroute::TracerouteOptions options;
  options.timeout = util::SimDuration::millis(300);
  return world.run_traceroutes(1, options);
}

/// One campaign trace on `world` itself, so the ledger holds rows and the
/// obs marks sit past zero before a traceroute phase.
void run_one_campaign_trace(World& world) {
  world.begin_trace_epoch("UGla wired", 1, 0);
  measure::TraceRunner runner(world.vantage("UGla wired"), world.server_addresses(),
                              measure::ProbeOptions{});
  bool done = false;
  runner.run(1, 0, [&](measure::Trace) { done = true; });
  world.sim().run();
  ASSERT_TRUE(done);
}

TEST(TraceroutePhase, LeavesTheLedgerRowCountsAsTheyWere) {
  World world{campaign_params()};
  const auto drops = world.obs().ledger.drops().size();
  const auto rewrites = world.obs().ledger.rewrites().size();
  const auto bleached = registry_count(world, "ecn_rewrites_total", kBleached);
  EXPECT_EQ(run_short_traceroutes(world).size(), 13u * 30u);
  EXPECT_EQ(world.obs().ledger.drops().size(), drops);
  EXPECT_EQ(world.obs().ledger.rewrites().size(), rewrites);
  // The phase did rewrite marks: the equal count above is a truncation.
  EXPECT_GT(registry_count(world, "ecn_rewrites_total", kBleached), bleached);
}

TEST(TraceroutePhase, LeavesTheTraceObsDeltaAsItWas) {
  World world{campaign_params()};
  run_one_campaign_trace(world);
  const auto rows = world.obs().ledger.drops();
  const auto before = world.collect_obs_delta().ledger;
  ASSERT_GT(before.total_drops(), 0u);
  run_short_traceroutes(world);
  const auto after = world.collect_obs_delta().ledger;
  EXPECT_EQ(after.drops, before.drops);
  EXPECT_EQ(after.rewrites, before.rewrites);
  // The trace's own rows survive the phase, row for row.
  ASSERT_EQ(world.obs().ledger.drops().size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(world.obs().ledger.drops()[i].node, rows[i].node);
    EXPECT_EQ(world.obs().ledger.drops()[i].cause, rows[i].cause);
  }
}

TEST(TraceroutePhase, StillCountsItsDropsInTheRegistry) {
  World world{campaign_params()};
  run_one_campaign_trace(world);
  const auto expired = registry_count(world, "ecn_drops_total", kTtlExpired);
  run_short_traceroutes(world);
  // Every probe below the path length expires at a router.
  EXPECT_GT(registry_count(world, "ecn_drops_total", kTtlExpired), expired + 13u * 30u);
}

TEST_F(CampaignTest, CsvRoundTripOfRealCampaign) {
  std::ostringstream os;
  measure::write_traces_csv(os, traces);
  std::istringstream is(os.str());
  const auto loaded = measure::read_traces_csv(is);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->size(), traces.size());
  const auto original = analysis::summarize_reachability(traces);
  const auto reloaded = analysis::summarize_reachability(*loaded);
  EXPECT_DOUBLE_EQ(original.mean_pct_ect_given_plain, reloaded.mean_pct_ect_given_plain);
  EXPECT_DOUBLE_EQ(original.pct_tcp_negotiating_ecn, reloaded.pct_tcp_negotiating_ecn);
}

}  // namespace
}  // namespace ecnprobe::scenario
