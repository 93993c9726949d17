// Tentpole robustness properties: fault-injected campaigns stay
// byte-identical across worker counts, checkpointed campaigns resume
// byte-identically after a simulated crash, and poisoned traces are
// quarantined with drop-ledger attribution instead of aborting the run.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

std::string campaign_csv(const std::vector<measure::Trace>& traces) {
  std::ostringstream os;
  measure::write_traces_csv(os, traces);
  return os.str();
}

WorldParams chaos_params() {
  auto params = WorldParams::small(77);
  params.server_count = 8;
  params.faults = *chaos::FaultPlan::parse("wan-chaos,chaos-links=2");
  return params;
}

measure::CampaignPlan plan_of(int per_vantage) {
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, per_vantage});
  plan.entries.push_back({"EC2 Vir", 1, per_vantage});
  plan.entries.push_back({"McQuistin home", 2, per_vantage});
  return plan;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(WorldChaos, FaultedCampaignByteIdenticalAcrossWorkers) {
  const auto params = chaos_params();
  const auto plan = plan_of(2);

  const auto seq = run_campaign(params, plan);
  const auto seq_csv = campaign_csv(seq.traces);
  const auto seq_obs = obs::encode_obs(seq.metrics);

  // Same (profile, seed) reruns to the same bytes...
  const auto again = run_campaign(params, plan);
  EXPECT_EQ(campaign_csv(again.traces), seq_csv);
  EXPECT_EQ(obs::encode_obs(again.metrics), seq_obs);

  // ...and sharding must not change a single byte, results or metrics.
  for (const int workers : {2, 8}) {
    const auto par = run_campaign(params, plan, {}, workers);
    EXPECT_EQ(campaign_csv(par.traces), seq_csv) << workers << " workers";
    EXPECT_EQ(obs::encode_obs(par.metrics), seq_obs) << workers << " workers";
  }
}

TEST(WorldChaos, SequentialResumeAfterCrashByteIdentical) {
  const auto params = chaos_params();
  const auto plan = plan_of(10);  // 30 traces
  const auto meta = journal_meta(params, plan, {});

  const auto baseline = run_campaign(params, plan);
  const auto baseline_csv = campaign_csv(baseline.traces);
  const auto baseline_obs = obs::encode_obs(baseline.metrics);

  for (const int kill_after : {1, 13, 29}) {
    TempFile file("chaos_seq_resume_" + std::to_string(kill_after));
    std::string error;
    {
      // The "crashed" run: journals every completed trace, halts mid-plan.
      measure::CampaignJournal journal;
      ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
      const auto partial = run_campaign(params, plan, {}, 1, &journal, kill_after);
      EXPECT_EQ(partial.traces.size(), static_cast<std::size_t>(kill_after));
      EXPECT_EQ(journal.entries().size(), static_cast<std::size_t>(kill_after));
    }
    // The resumed run: replays the journal, runs the remainder live.
    measure::CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    EXPECT_EQ(journal.entries().size(), static_cast<std::size_t>(kill_after));
    const auto resumed = run_campaign(params, plan, {}, 1, &journal);
    EXPECT_EQ(campaign_csv(resumed.traces), baseline_csv) << "kill after " << kill_after;
    EXPECT_EQ(obs::encode_obs(resumed.metrics), baseline_obs)
        << "kill after " << kill_after;
  }
}

TEST(WorldChaos, ParallelResumeAfterCrashByteIdentical) {
  const auto params = chaos_params();
  const auto plan = plan_of(10);  // 30 traces
  const auto meta = journal_meta(params, plan, {});
  const int workers = 4;

  const auto baseline = run_campaign(params, plan, {}, workers);
  const auto baseline_csv = campaign_csv(baseline.traces);

  for (const int kill_after : {1, 13, 29}) {
    TempFile file("chaos_par_resume_" + std::to_string(kill_after));
    std::string error;
    {
      measure::CampaignJournal journal;
      ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
      (void)run_campaign(params, plan, {}, workers, &journal, kill_after);
      // Which traces got claimed before the halt is scheduling-dependent,
      // but at least the halt quota must have been journaled.
      EXPECT_GE(journal.entries().size(), static_cast<std::size_t>(kill_after));
      EXPECT_LT(journal.entries().size(), static_cast<std::size_t>(plan.total_traces()));
    }
    measure::CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    const auto resumed = run_campaign(params, plan, {}, workers, &journal);
    EXPECT_EQ(campaign_csv(resumed.traces), baseline_csv) << "kill after " << kill_after;
    EXPECT_EQ(obs::encode_obs(resumed.metrics), obs::encode_obs(baseline.metrics))
        << "kill after " << kill_after;
  }
}

TEST(WorldChaos, PoisonedTraceQuarantinedOthersUnaffected) {
  auto params = WorldParams::small(91);
  params.server_count = 10;
  const auto plan = plan_of(2);  // 6 traces

  const auto clean = run_campaign(params, plan).traces;
  ASSERT_EQ(clean.size(), 6u);

  auto poisoned_params = params;
  poisoned_params.faults = *chaos::FaultPlan::parse("none,poison=3");
  const auto poisoned = run_campaign(poisoned_params, plan);
  const auto& failures = poisoned.failures;

  // The poisoned trace is quarantined and attributed, not fatal.
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 3);
  EXPECT_NE(failures[0].message.find("poison"), std::string::npos);
  EXPECT_EQ(poisoned.metrics.ledger.drops_for_cause("trace-quarantined"), 1u);

  // Every surviving trace is byte-identical to its fault-free counterpart.
  ASSERT_EQ(poisoned.traces.size(), clean.size() - 1);
  std::vector<measure::Trace> clean_minus;
  for (const auto& trace : clean) {
    if (trace.index != 3) clean_minus.push_back(trace);
  }
  EXPECT_EQ(campaign_csv(poisoned.traces), campaign_csv(clean_minus));

  // Two workers quarantine the same trace and produce the same bytes,
  // results and observability alike.
  const auto par = run_campaign(poisoned_params, plan, {}, 2);
  EXPECT_EQ(campaign_csv(par.traces), campaign_csv(poisoned.traces));
  ASSERT_EQ(par.failures.size(), 1u);
  EXPECT_EQ(par.failures[0].index, 3);
  EXPECT_EQ(obs::encode_obs(par.metrics), obs::encode_obs(poisoned.metrics));
}

TEST(WorldChaos, TruncatedQuotesReadAsUnknownNotBleached) {
  auto params = WorldParams::small(5);
  params.server_count = 10;
  params.faults = *chaos::FaultPlan::parse(
      "icmp-degraded,icmp-blackhole-routers=0,quote-truncate-links=12,"
      "quote-truncate-prob=1.0");
  World world(params);
  const auto observations = world.run_traceroutes(1);

  int truncated_hops = 0;
  for (const auto& obs : observations) {
    for (const auto& hop : obs.path.hops) {
      if (!hop.responded || !hop.quote_truncated) continue;
      ++truncated_hops;
      // A truncated quote means the ECN field was never observed: the hop
      // must not read as intact *or* bleached.
      EXPECT_FALSE(hop.ecn_known);
      EXPECT_FALSE(hop.ecn_intact());
    }
  }
  ASSERT_GT(truncated_hops, 0) << "fault plan injected no truncations";

  const auto hops = analysis::analyze_hops(observations, world.ip2as());
  EXPECT_GT(hops.ecn_unknown_hops, 0u);
  EXPECT_GT(hops.total_hops, 0u);
}

}  // namespace
}  // namespace ecnprobe::scenario
