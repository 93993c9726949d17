// The telemetry fidelity knob, end to end through the scenario layer:
//
//  * exact mode (the default) must write --metrics-out files byte-identical
//    to the committed golden captured before the telemetry layer existed;
//  * sketched mode must produce bit-identical aggregates at one worker and
//    under --workers N (the estimators are pure functions of config, seed,
//    and trace stream);
//  * sketched estimates must reconcile with an exact-mode run of the same
//    world within the declared one-sided epsilon bound, across seeds and
//    worker counts;
//  * head-based sampling must keep flight events only for sampled traces.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

WorldParams chaos_params(std::uint64_t seed) {
  auto p = WorldParams::small(seed);
  p.server_count = 12;
  p.ect_udp_firewalled_servers = 3;
  p.offline_prob = 0.1;
  return p;
}

measure::CampaignPlan chaos_plan() {
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  return plan;
}

obs::TelemetryConfig sketched_config() {
  obs::TelemetryConfig config;
  config.mode = obs::TelemetryMode::Sketched;
  config.epsilon = 0.005;
  config.sample_every = 2;
  config.reservoir = 4;
  return config;
}

TEST(WorldTelemetry, ExactModeMetricsFilesMatchGolden) {
  // Mirrors `ecnprobe campaign --scale 0.05 --seed 42 --metrics-out ...`,
  // which produced the committed golden on the pre-telemetry build: exact
  // mode must stay byte-identical, with no telemetry key and no sketch
  // exposition. Regenerate with ECNPROBE_UPDATE_GOLDEN=1 ./test_scenario.
  auto params = WorldParams::paper().scaled(0.05);
  params.seed = 42;
  const auto plan = measure::CampaignPlan::paper_layout(1, 1, 1);
  EXPECT_FALSE(World(params).obs().telemetry.armed());
  const auto run = run_campaign(params, plan);
  EXPECT_FALSE(run.telemetry.active());

  const std::string out_json = testing::TempDir() + "metrics_exact.json";
  const std::string out_prom = testing::TempDir() + "metrics_exact.prom";
  ASSERT_TRUE(obs::write_metrics_files(out_json, run.metrics, nullptr));
  const auto json = read_file(out_json);
  const auto prom = read_file(out_prom);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(prom.empty());

  const std::string golden_json = std::string(ECNPROBE_GOLDEN_DIR) + "/metrics_exact.json";
  const std::string golden_prom = std::string(ECNPROBE_GOLDEN_DIR) + "/metrics_exact.prom";
  if (std::getenv("ECNPROBE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(golden_json, std::ios::binary) << json;
    std::ofstream(golden_prom, std::ios::binary) << prom;
    GTEST_SKIP() << "goldens regenerated";
  }
  EXPECT_EQ(json, read_file(golden_json))
      << "exact-mode JSON drifted from the pre-telemetry golden";
  EXPECT_EQ(prom, read_file(golden_prom))
      << "exact-mode Prometheus exposition drifted from the pre-telemetry golden";
  EXPECT_EQ(json.find("telemetry"), std::string::npos);
}

TEST(WorldTelemetry, SketchedAggregateIsByteIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto params = chaos_params(seed);
    params.telemetry = sketched_config();
    const auto plan = chaos_plan();

    ASSERT_TRUE(World(params).obs().telemetry.armed());
    const auto one_worker = run_campaign(params, plan);
    const auto& reference = one_worker.telemetry;
    ASSERT_TRUE(reference.active());
    EXPECT_GT(reference.counts().total(), 0u);
    const auto reference_json = obs::to_json(reference);
    const auto reference_prom = obs::to_prometheus(reference);
    const auto reference_report =
        obs::render_metrics_report_json(one_worker.metrics, nullptr, &reference);

    for (const int workers : {2, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const auto run = run_campaign(params, plan, {}, workers);
      const auto& aggregate = run.telemetry;
      ASSERT_TRUE(aggregate.active());
      EXPECT_EQ(obs::to_json(aggregate), reference_json);
      EXPECT_EQ(obs::to_prometheus(aggregate), reference_prom);
      EXPECT_EQ(obs::render_metrics_report_json(run.metrics, nullptr, &aggregate),
                reference_report);
    }
  }
}

TEST(WorldTelemetry, SketchedEstimatesReconcileWithExactRun) {
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto plan = chaos_plan();

    // Truth: the same world in exact mode. Telemetry recording makes no
    // simulation RNG draws, so both modes see identical drop streams.
    const auto exact = run_campaign(chaos_params(seed), plan);
    const auto& truth = exact.metrics.ledger;
    ASSERT_GT(truth.total_drops(), 0u);

    auto sketched_params = chaos_params(seed);
    sketched_params.telemetry = sketched_config();
    const auto sketched = run_campaign(sketched_params, plan);
    const auto& aggregate = sketched.telemetry;
    ASSERT_TRUE(aggregate.active());
    const auto bound = aggregate.error_bound();

    for (const auto& [key, count] : truth.drops) {
      const std::string sketch_key = "cause:" + key.first + "/" + key.second;
      const auto estimate = aggregate.estimate(sketch_key);
      EXPECT_GE(estimate, count) << sketch_key;
      EXPECT_LE(estimate, count + bound) << sketch_key;
    }
    for (const auto& [key, count] : truth.rewrites) {
      const std::string sketch_key = "rewrite:" + key.first + "/" + key.second;
      const auto estimate = aggregate.estimate(sketch_key);
      EXPECT_GE(estimate, count) << sketch_key;
      EXPECT_LE(estimate, count + bound) << sketch_key;
    }
    // The estimated ledger reconstruction reconciles the same way.
    const auto estimated = obs::estimated_ledger(aggregate);
    for (const auto& [key, count] : truth.drops) {
      const auto it = estimated.drops.find(key);
      ASSERT_NE(it, estimated.drops.end()) << key.first << "/" << key.second;
      EXPECT_GE(it->second, count);
    }
  }
}

TEST(WorldTelemetry, HeadSamplingKeepsFlightEventsForSampledTracesOnly) {
  auto params = chaos_params(61);
  params.flight_recorder_capacity = 1 << 14;
  params.telemetry = sketched_config();  // sample_every = 2
  const auto run = run_campaign(params, chaos_plan());
  const auto& flights = run.flights;
  ASSERT_FALSE(flights.empty());
  for (const auto& event : flights) {
    EXPECT_EQ(event.key.trace % 2, 0)
        << "unsampled trace " << event.key.trace << " leaked a flight event";
  }
  // Unsampled traces still contribute to the sketch.
  const auto& aggregate = run.telemetry;
  EXPECT_GT(aggregate.traces_folded(), aggregate.sampled_exact_traces());
}

TEST(WorldTelemetry, SketchedLedgerKeepsOnlySampledTraceRows) {
  auto params = chaos_params(61);
  params.telemetry = sketched_config();
  const auto run = run_campaign(params, chaos_plan());
  // The exact ledger rows that survive sketched mode all come from
  // sampled traces, so campaign drop totals are <= the sketch stream.
  const auto& obs_ledger = run.metrics.ledger;
  const auto& aggregate = run.telemetry;
  EXPECT_LE(obs_ledger.total_drops() + obs_ledger.total_rewrites(),
            aggregate.counts().total());
}

}  // namespace
}  // namespace ecnprobe::scenario
