// Resume must not double-count observability: a campaign that crashes,
// journals its progress, and resumes has its journal-replayed per-trace
// deltas merged exactly once, so the final --metrics-out snapshot is
// byte-identical to an uninterrupted run's, at one worker and at four; the
// executor itself also asserts the merge accounting (a trace committed
// twice throws instead of silently double-merging).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

scenario::WorldParams resume_params() {
  auto p = scenario::WorldParams::small(55);
  p.server_count = 16;
  p.ect_udp_firewalled_servers = 2;
  p.offline_prob = 0.08;
  return p;
}

CampaignPlan resume_plan() {
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 3});
  plan.entries.push_back({"UGla wired", 1, 3});
  plan.entries.push_back({"EC2 Vir", 2, 3});
  plan.entries.push_back({"EC2 Tok", 2, 3});
  return plan;
}

TEST(ResumeMetrics, SequentialResumeMatchesUninterruptedRun) {
  const auto params = resume_params();
  const auto plan = resume_plan();
  const auto meta = scenario::journal_meta(params, plan, {});

  const auto reference = scenario::run_campaign(params, plan).metrics;
  const auto reference_json = obs::to_json(reference);
  ASSERT_GT(reference.ledger.total_drops(), 0u);

  TempFile file("resume_metrics_seq");
  std::string error;
  {
    // Crash after 5 live traces; the journal keeps what completed.
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    scenario::run_campaign(params, plan, {}, 1, &journal, /*halt_after=*/5);
    ASSERT_EQ(journal.entries().size(), 5u);
  }
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
  const auto resumed = scenario::run_campaign(params, plan, {}, 1, &journal);
  EXPECT_EQ(static_cast<int>(resumed.traces.size()), plan.total_traces());
  // The strong contract: replayed deltas merged exactly once, so the merged
  // snapshot encodes to the same bytes as the uninterrupted run's.
  EXPECT_EQ(obs::to_json(resumed.metrics), reference_json);
}

TEST(ResumeMetrics, ParallelResumeMatchesUninterruptedRun) {
  const auto params = resume_params();
  const auto plan = resume_plan();
  const auto meta = scenario::journal_meta(params, plan, {});

  ParallelCampaign::Options exec;
  exec.workers = 4;
  ParallelCampaign reference(scenario::world_shard_factory(params), exec);
  reference.run(plan);
  ASSERT_TRUE(reference.failures().empty());
  const auto reference_json = obs::to_json(reference.metrics());

  TempFile file("resume_metrics_par");
  std::string error;
  std::size_t journaled = 0;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    ParallelCampaign::Options halted_exec;
    halted_exec.workers = 4;
    halted_exec.halt_after_traces = 5;
    ParallelCampaign halted(scenario::world_shard_factory(params), halted_exec);
    halted.set_journal(&journal);
    halted.run(plan);
    journaled = journal.entries().size();
    // Which traces got journaled before the "crash" is scheduling-dependent,
    // but there must be some progress to resume from and some left to do.
    ASSERT_GT(journaled, 0u);
    ASSERT_LT(journaled, static_cast<std::size_t>(plan.total_traces()));
  }
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
  ASSERT_EQ(journal.entries().size(), journaled);
  ParallelCampaign resumed(scenario::world_shard_factory(params), exec);
  resumed.set_journal(&journal);
  const auto traces = resumed.run(plan);
  ASSERT_TRUE(resumed.failures().empty());
  EXPECT_EQ(static_cast<int>(traces.size()), plan.total_traces());
  EXPECT_EQ(obs::to_json(resumed.metrics()), reference_json);
}

}  // namespace
}  // namespace ecnprobe::measure
