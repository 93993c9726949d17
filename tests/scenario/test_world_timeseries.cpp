// The deterministic sim-time series, end to end through the scenario
// layer:
//
//  * a campaign with --timeseries produces a non-empty series whose window
//    totals reconcile with the end-of-run counters;
//  * the series is byte-identical at one worker and under --workers {2,8}
//    (folded per-trace in plan order, epoch-relative windows);
//  * a world without the config stays inert: no series in the snapshot, no
//    "timeseries" key in the metrics JSON (byte-compat with old exports).
#include <gtest/gtest.h>

#include <string>

#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

WorldParams series_params(std::uint64_t seed) {
  auto p = WorldParams::small(seed);
  p.server_count = 12;
  p.ect_udp_firewalled_servers = 3;
  p.offline_prob = 0.1;
  obs::TimeSeriesConfig config;
  config.enabled = true;
  config.window_nanos = 500'000'000;  // 500 ms sim-time windows
  p.timeseries = config;
  return p;
}

measure::CampaignPlan series_plan() {
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  return plan;
}

TEST(WorldTimeSeries, SeriesReconcilesWithCampaignTotals) {
  ASSERT_TRUE(World(series_params(42)).obs().timeseries.armed());
  const auto run = run_campaign(series_params(42), series_plan());
  const auto& series = run.metrics.timeseries;
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.window_nanos, 500'000'000);

  // Every probe the campaign counted appears in exactly one window, so the
  // per-window series sums back to the end-of-run counter totals.
  std::uint64_t series_udp = 0;
  std::uint64_t series_rtt = 0;
  for (const auto& [index, window] : series.windows) {
    for (const auto& [key, n] : window.counts) {
      if (key.rfind("probe:udp-", 0) == 0) series_udp += n;
    }
    series_rtt += window.rtt_count;
  }
  std::uint64_t counter_udp = 0;
  const auto& families = run.metrics.metrics.families;
  const auto it = families.find("probe_udp_total");
  ASSERT_NE(it, families.end());
  for (const auto& [labels, sample] : it->second.samples) {
    counter_udp += sample.counter;
  }
  EXPECT_EQ(series_udp, counter_udp);
  EXPECT_GT(series_rtt, 0u);
}

TEST(WorldTimeSeries, ByteIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto params = series_params(seed);
    const auto plan = series_plan();

    const auto one_worker = run_campaign(params, plan).metrics;
    ASSERT_FALSE(one_worker.timeseries.empty());
    const auto reference_json = obs::to_json(one_worker);
    ASSERT_NE(reference_json.find("\"timeseries\""), std::string::npos);
    const auto reference_prom = obs::to_prometheus(one_worker.timeseries);

    for (const int workers : {2, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const auto metrics = run_campaign(params, plan, {}, workers).metrics;
      EXPECT_EQ(metrics.timeseries, one_worker.timeseries);
      EXPECT_EQ(obs::to_json(metrics), reference_json);
      EXPECT_EQ(obs::to_prometheus(metrics.timeseries), reference_prom);
    }
  }
}

TEST(WorldTimeSeries, DisabledSeriesKeepsLegacyExports) {
  auto params = series_params(42);
  params.timeseries = obs::TimeSeriesConfig{};  // off (the default)
  EXPECT_FALSE(World(params).obs().timeseries.armed());
  const auto metrics = run_campaign(params, series_plan()).metrics;
  EXPECT_TRUE(metrics.timeseries.empty());
  EXPECT_EQ(obs::to_json(metrics).find("timeseries"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::scenario
