// The probe-lifecycle supervisor through the full world: the paper-fixed
// default must reproduce the committed golden campaign artefacts byte for
// byte, a fully-armed supervisor (backoff + jitter + hedging + breakers +
// pacer + watchdog) must stay byte-identical at one worker and at 2 and 8,
// breakers must measurably shorten a blackhole-heavy campaign with every
// skipped probe attributed, and the watchdog must cancel stalled server
// probes with attribution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

std::string traces_csv(const std::vector<measure::Trace>& traces) {
  std::ostringstream os;
  measure::write_traces_csv(os, traces);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

WorldParams blackhole_params(std::uint64_t seed = 51) {
  auto params = WorldParams::small(seed);
  params.server_count = 18;
  const auto faults = chaos::FaultPlan::parse("blackhole-heavy");
  EXPECT_TRUE(faults);
  params.faults = *faults;
  return params;
}

measure::ProbeOptions armed_supervisor() {
  measure::ProbeOptions probe;
  auto& sched = probe.sched;
  sched.retry.kind = sched::RetryPolicy::Kind::Backoff;
  sched.retry.max_attempts = 4;
  sched.retry.base_timeout = util::SimDuration::millis(600);
  sched.retry.backoff_factor = 2.0;
  sched.retry.max_timeout = util::SimDuration::seconds(3);
  sched.retry.jitter = 0.25;
  sched.retry.total_budget = util::SimDuration::seconds(6);
  sched.retry.hedge_delay = util::SimDuration::millis(250);
  sched.breaker.enabled = true;
  sched.breaker.failure_threshold = 2;
  sched.breaker.half_open_after = 3;
  sched.pacer.enabled = true;
  sched.pacer.rate_per_sec = 400.0;
  sched.pacer.burst = 2;
  sched.pacer.per_dest_gap = util::SimDuration::millis(1);
  sched.watchdog.deadline = util::SimDuration::seconds(20);
  return probe;
}

/// Where a worker's simulator stood when the executor collected a trace's
/// delta, i.e. once the trace and its stragglers had settled.
struct SimEnd {
  util::SimTime now;
  std::size_t events = 0;
};

/// WorldShard that records SimEnd at every delta collection.
class SimEndShard final : public measure::CampaignShard {
public:
  SimEndShard(const WorldParams& params, SimEnd* end) : shard_(params), end_(end) {}

  netsim::Simulator& sim() override { return shard_.sim(); }
  std::map<std::string, measure::Vantage*> vantages() override { return shard_.vantages(); }
  std::vector<wire::Ipv4Address> servers() override { return shard_.servers(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    shard_.begin_trace(vantage, batch, index);
  }
  obs::ObsSnapshot collect_trace_metrics() override {
    *end_ = {shard_.sim().now(), shard_.sim().events_processed()};
    return shard_.collect_trace_metrics();
  }
  std::vector<obs::FlightEvent> collect_trace_events() override {
    return shard_.collect_trace_events();
  }
  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    shard_.quarantine_trace(vantage, batch, index);
  }
  sched::GroupResolver breaker_group() override { return shard_.breaker_group(); }

private:
  WorldShard shard_;
  SimEnd* end_;
};

/// A one-worker campaign plus where its simulator ended: for a one-trace
/// plan on a fresh world, the simulated time and work the trace took.
struct MeasuredRun {
  CampaignRun run;
  SimEnd end;
};

MeasuredRun run_measured(const WorldParams& params, const measure::CampaignPlan& plan,
                         const measure::ProbeOptions& probe) {
  MeasuredRun measured;
  measure::ParallelCampaign campaign(
      [&](int) { return std::make_unique<SimEndShard>(params, &measured.end); },
      campaign_options(params, probe));
  measured.run.traces = campaign.run(plan);
  measured.run.metrics = campaign.metrics();
  return measured;
}

/// One row of the golden-artefact table: a world, a probe discipline and
/// the stem of the committed files under tests/scenario/golden/.
struct GoldenRow {
  std::string stem;
  WorldParams params;
  measure::ProbeOptions probe;
  /// The JSON is the --metrics-out report (campaign snapshot plus the
  /// sketched-telemetry section) instead of the bare campaign snapshot.
  bool metrics_report = false;
};

std::vector<GoldenRow> golden_rows() {
  // The paper default: exactly the pre-supervisor seed campaign. If it
  // fails, the default policy is no longer invisible.
  std::vector<GoldenRow> rows;
  rows.push_back({"campaign_default", WorldParams::small(42), {}, false});
  // The feature-heavy path: faults with a poisoned (quarantined) trace,
  // every supervisor feature, sampled sketched telemetry and a sim-time
  // series, all folded into one campaign.
  GoldenRow heavy{"campaign_features", WorldParams::small(42), armed_supervisor(), true};
  heavy.params.faults = *chaos::FaultPlan::parse("wan-chaos,poison=1");
  heavy.params.telemetry = *obs::TelemetryConfig::parse("sketched,sample-every=2");
  heavy.params.timeseries = *obs::TimeSeriesConfig::parse("1000");
  rows.push_back(std::move(heavy));
  return rows;
}

TEST(WorldSched, PaperDefaultMatchesGoldenArtifacts) {
  // The committed files came from the unmodified tree; intentional output
  // changes regenerate them via ECNPROBE_UPDATE_GOLDEN=1.
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"McQuistin home", 1, 1});
  plan.entries.push_back({"EC2 Tok", 2, 2});
  const std::string dir(ECNPROBE_GOLDEN_DIR);
  const bool update = std::getenv("ECNPROBE_UPDATE_GOLDEN") != nullptr;
  for (const auto& row : golden_rows()) {
    SCOPED_TRACE(row.stem);
    const auto run = run_campaign(row.params, plan, row.probe);
    const std::string csv = traces_csv(run.traces);
    const std::string json =
        row.metrics_report
            ? obs::render_metrics_report_json(run.metrics, nullptr, &run.telemetry)
            : obs::to_json(run.metrics);
    if (update) {
      std::ofstream(dir + "/" + row.stem + ".csv", std::ios::binary) << csv;
      std::ofstream(dir + "/" + row.stem + ".json", std::ios::binary) << json;
      continue;
    }
    const std::string golden_csv = read_file(dir + "/" + row.stem + ".csv");
    const std::string golden_json = read_file(dir + "/" + row.stem + ".json");
    ASSERT_FALSE(golden_csv.empty()) << "missing golden " << row.stem << ".csv";
    ASSERT_FALSE(golden_json.empty()) << "missing golden " << row.stem << ".json";
    EXPECT_TRUE(csv == golden_csv) << "campaign CSV drifted from the golden bytes";
    EXPECT_TRUE(json == golden_json) << "campaign obs JSON drifted from the golden bytes";
    // The paper default also creates no supervisor metric families.
    if (row.probe.sched.is_paper_default()) {
      EXPECT_EQ(json.find("sched_"), std::string::npos);
    }
  }
  if (update) GTEST_SKIP() << "golden campaign artefacts regenerated";
}

TEST(WorldSched, ArmedSupervisorShardsByteIdentically) {
  // Every supervisor feature at once, on a blackhole-heavy world so the
  // breakers, hedges, and watchdog all actually fire -- then one worker and
  // 2 and 8 workers must still agree byte for byte.
  const auto params = blackhole_params();
  const auto probe = armed_supervisor();
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"Perkins home", 1, 1});
  plan.entries.push_back({"EC2 Vir", 2, 2});

  const auto reference = run_campaign(params, plan, probe);
  const std::string reference_csv = traces_csv(reference.traces);
  const std::string reference_json = obs::to_json(reference.metrics);

  // The supervisor was genuinely exercised, not idle.
  EXPECT_NE(reference_json.find("sched_retry_attempts_total"), std::string::npos);
  EXPECT_NE(reference_json.find("sched_breaker_transitions_total"), std::string::npos);
  EXPECT_NE(reference_json.find("sched_hedges_total"), std::string::npos);
  EXPECT_GT(reference.metrics.ledger.drops_for_cause("circuit-open"), 0u);

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto sharded = run_campaign(params, plan, probe, workers);
    EXPECT_TRUE(traces_csv(sharded.traces) == reference_csv);
    EXPECT_TRUE(obs::to_json(sharded.metrics) == reference_json);
  }
}

TEST(WorldSched, BreakersRouteAroundBlackholedServers) {
  // Enough servers that the deterministic savings from skipped probes
  // dominate: skipping sends also shifts the epoch RNG stream, so a few
  // probes elsewhere in the trace can flip outcome (a flipped timeout
  // costs ~5 sim-s); at this scale the breakers win on every seed.
  auto params = blackhole_params(77);
  params.server_count = 48;
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});

  const auto plain = run_measured(params, plan, {});
  EXPECT_EQ(plain.run.metrics.ledger.drops_for_cause("circuit-open"), 0u);

  measure::ProbeOptions probe;
  probe.sched.breaker.enabled = true;
  probe.sched.breaker.failure_threshold = 2;
  probe.sched.breaker.half_open_after = 4;
  const auto breakered = run_measured(params, plan, probe);

  // Routing around the corpses finishes the campaign in less simulated
  // time AND less simulator work.
  EXPECT_LT(breakered.end.now, plain.end.now);
  EXPECT_LT(breakered.end.events, plain.end.events);

  // Every skipped probe is attributed: the circuit-open ledger count is
  // exactly the sched_breaker_skips_total sum, and it is not zero.
  const auto& obs = breakered.run.metrics;
  const auto skipped = obs.ledger.drops_for_cause("circuit-open");
  EXPECT_GT(skipped, 0u);
  std::uint64_t counted = 0;
  const auto family = obs.metrics.families.find("sched_breaker_skips_total");
  ASSERT_NE(family, obs.metrics.families.end());
  for (const auto& [labels, sample] : family->second.samples) counted += sample.counter;
  EXPECT_EQ(counted, skipped);

  // Same plan, same params, same config: the breakered run is itself
  // reproducible.
  const auto replay = run_campaign(params, plan, probe);
  EXPECT_TRUE(traces_csv(replay.traces) == traces_csv(breakered.run.traces));
}

TEST(WorldSched, WatchdogCancelsStalledServerProbes) {
  const auto params = blackhole_params(91);
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});

  measure::ProbeOptions probe;
  probe.sched.watchdog.deadline = util::SimDuration::seconds(8);
  const auto run = run_campaign(params, plan, probe);
  ASSERT_EQ(run.traces.size(), 1u);
  // Cancelled servers still report a (failed) result row; nothing vanishes.
  EXPECT_EQ(run.traces[0].servers.size(), static_cast<std::size_t>(params.server_count));

  const auto cancelled = run.metrics.ledger.drops_for_cause("watchdog-cancelled");
  EXPECT_GT(cancelled, 0u);
  const std::string json = obs::to_json(run.metrics);
  EXPECT_NE(json.find("sched_watchdog_cancellations_total"), std::string::npos);

  // A watchdog-cancelled campaign still shards byte-identically.
  const auto sharded = run_campaign(params, plan, probe, 8);
  EXPECT_TRUE(traces_csv(sharded.traces) == traces_csv(run.traces));
  EXPECT_TRUE(obs::to_json(sharded.metrics) == json);
}

}  // namespace
}  // namespace ecnprobe::scenario
