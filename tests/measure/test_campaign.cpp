#include "ecnprobe/measure/campaign.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

TEST(CampaignPlan, PaperLayoutTotals210) {
  const auto plan = CampaignPlan::paper_layout();
  EXPECT_EQ(plan.total_traces(), 210);
  // 4 home/campus vantages appear in both batches; 9 EC2 in batch 2 only.
  int batch1 = 0;
  int batch2 = 0;
  for (const auto& entry : plan.entries) {
    (entry.batch == 1 ? batch1 : batch2) += entry.count;
  }
  EXPECT_EQ(batch1, 36);
  EXPECT_EQ(batch2, 174);
}

TEST(CampaignPlan, VantageNamesMatchFigureOrder) {
  const auto& names = paper_vantage_names();
  ASSERT_EQ(names.size(), 13u);
  EXPECT_EQ(names.front(), "Perkins home");
  EXPECT_EQ(names.back(), "EC2 Vir");
}

TEST(Campaign, RunsPlanAndStampsTraces) {
  auto params = scenario::WorldParams::small(11);
  params.server_count = 8;
  params.offline_prob = 0.0;

  CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Sin", 2, 1});

  ParallelCampaign campaign(scenario::world_shard_factory(params), {});
  std::vector<std::tuple<std::string, int, int>> observed;
  campaign.set_observer([&](const std::string& vantage, int batch, int index) {
    observed.emplace_back(vantage, batch, index);
  });
  const auto traces = campaign.run(plan);

  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].vantage, "UGla wired");
  EXPECT_EQ(traces[0].batch, 1);
  EXPECT_EQ(traces[1].vantage, "UGla wired");
  EXPECT_EQ(traces[2].vantage, "EC2 Sin");
  EXPECT_EQ(traces[2].batch, 2);
  // Indices are sequential.
  EXPECT_EQ(traces[0].index, 0);
  EXPECT_EQ(traces[2].index, 2);
  // At one worker the observer sees each trace once, in plan order:
  // batch 1 before batch 2.
  const std::vector<std::tuple<std::string, int, int>> expected = {
      {"UGla wired", 1, 0}, {"UGla wired", 1, 1}, {"EC2 Sin", 2, 2}};
  EXPECT_EQ(observed, expected);
}

TEST(Campaign, UnknownVantageThrows) {
  // The trace for a vantage the world lacks throws on its worker; the
  // executor quarantines it as a failure that names the vantage.
  auto params = scenario::WorldParams::small(12);
  params.server_count = 4;
  CampaignPlan plan;
  plan.entries.push_back({"Atlantis", 1, 1});
  ParallelCampaign campaign(scenario::world_shard_factory(params), {});
  EXPECT_TRUE(campaign.run(plan).empty());
  ASSERT_EQ(campaign.failures().size(), 1u);
  const auto& failure = campaign.failures()[0];
  EXPECT_EQ(failure.index, 0);
  EXPECT_EQ(failure.vantage, "Atlantis");
  EXPECT_NE(failure.message.find("unknown vantage Atlantis"), std::string::npos);
  EXPECT_EQ(campaign.metrics().ledger.drops_for_cause("trace-quarantined"), 1u);
}

}  // namespace
}  // namespace ecnprobe::measure
