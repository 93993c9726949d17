// Determinism regression harness for the campaign executor: the whole
// point of ParallelCampaign is that sharding traces across isolated
// per-worker worlds changes wall-clock time and nothing else. Output at
// one worker and at 2 and 8 workers must agree to the byte, and a worker
// whose trace throws must neither lose nor duplicate anyone else's traces.
#include "ecnprobe/measure/parallel_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

scenario::WorldParams determinism_params() {
  auto p = scenario::WorldParams::small(77);
  p.server_count = 24;
  p.ect_udp_firewalled_servers = 2;
  p.ect_required_servers = 1;
  p.ec2_sensitive_servers = 1;
  p.offline_prob = 0.06;
  return p;
}

CampaignPlan mixed_plan() {
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"McQuistin home", 1, 1});
  plan.entries.push_back({"UGla wless", 1, 1});
  plan.entries.push_back({"Perkins home", 2, 1});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  plan.entries.push_back({"EC2 Tok", 2, 2});
  return plan;
}

CampaignPlan four_vantage_plan() {
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 4});
  plan.entries.push_back({"UGla wired", 1, 4});
  plan.entries.push_back({"EC2 Sin", 2, 4});
  plan.entries.push_back({"EC2 Sao", 2, 4});
  return plan;
}

std::string to_csv(const std::vector<Trace>& traces) {
  std::ostringstream os;
  write_traces_csv(os, traces);
  return os.str();
}

/// A world shard whose poisoned traces throw once the world has set up
/// their epoch: a trace that fails on its worker mid-campaign.
class PoisonedShard final : public CampaignShard {
public:
  PoisonedShard(const scenario::WorldParams& params, std::set<int> poisoned)
      : inner_(params), poisoned_(std::move(poisoned)) {}

  netsim::Simulator& sim() override { return inner_.sim(); }
  std::map<std::string, Vantage*> vantages() override { return inner_.vantages(); }
  std::vector<wire::Ipv4Address> servers() override { return inner_.servers(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    inner_.begin_trace(vantage, batch, index);
    if (poisoned_.contains(index)) {
      throw std::runtime_error("injected failure for trace " + std::to_string(index));
    }
  }
  obs::ObsSnapshot collect_trace_metrics() override { return inner_.collect_trace_metrics(); }
  std::vector<obs::FlightEvent> collect_trace_events() override {
    return inner_.collect_trace_events();
  }
  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    inner_.quarantine_trace(vantage, batch, index);
  }
  sched::GroupResolver breaker_group() override { return inner_.breaker_group(); }

private:
  scenario::WorldShard inner_;
  std::set<int> poisoned_;
};

ParallelCampaign::ShardFactory poisoned_factory(const scenario::WorldParams& params,
                                                const std::set<int>& poisoned) {
  return [params, poisoned](int) -> std::unique_ptr<CampaignShard> {
    return std::make_unique<PoisonedShard>(params, poisoned);
  };
}

TEST(ParallelCampaign, ByteIdenticalToSequentialAt1And2And8Workers) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const ProbeOptions options;

  const auto one_worker = scenario::run_campaign(params, plan, options).traces;
  ASSERT_EQ(static_cast<int>(one_worker.size()), plan.total_traces());
  const auto one_worker_csv = to_csv(one_worker);
  const auto one_worker_summary = analysis::summarize_reachability(one_worker);

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto parallel = scenario::run_campaign(params, plan, options, workers).traces;
    ASSERT_EQ(parallel.size(), one_worker.size());

    // Plan-order merge: index, vantage, and batch line up trace for trace.
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].index, one_worker[i].index);
      EXPECT_EQ(parallel[i].vantage, one_worker[i].vantage);
      EXPECT_EQ(parallel[i].batch, one_worker[i].batch);
    }

    // The strong contract: the merged results CSV is byte-identical.
    EXPECT_EQ(to_csv(parallel), one_worker_csv);

    // And so are the paper's headline numbers (Table 1 / Figure 2a inputs).
    const auto summary = analysis::summarize_reachability(parallel);
    EXPECT_DOUBLE_EQ(summary.mean_reachable_udp_plain,
                     one_worker_summary.mean_reachable_udp_plain);
    EXPECT_DOUBLE_EQ(summary.mean_pct_ect_given_plain,
                     one_worker_summary.mean_pct_ect_given_plain);
    EXPECT_DOUBLE_EQ(summary.mean_pct_plain_given_ect,
                     one_worker_summary.mean_pct_plain_given_ect);
    EXPECT_DOUBLE_EQ(summary.pct_tcp_negotiating_ecn,
                     one_worker_summary.pct_tcp_negotiating_ecn);
  }
}

TEST(ParallelCampaign, RepeatedParallelRunsAreIdentical) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const auto first = scenario::run_campaign(params, plan, {}, 4).traces;
  const auto second = scenario::run_campaign(params, plan, {}, 4).traces;
  EXPECT_EQ(to_csv(first), to_csv(second));
}

// The sink contract. The run has every kind of gap: a journal holding a
// non-contiguous set of traces (one above the halt), a halt_after_traces
// hole and a trace that throws. The sink must see each delivered trace
// exactly once, in ascending index order, and never the quarantined one.
// It is called one trace at a time, so a non-atomic counter in it still
// ends exact.
TEST(ParallelCampaign, SinkSeesEachDeliveredTraceOnceInPlanOrder) {
  const auto params = determinism_params();
  const auto plan = four_vantage_plan();
  const auto meta = scenario::journal_meta(params, plan, {});
  const std::set<int> journaled = {3, 4, 14};
  const int poisoned = 0;  // the first live claim, so every run quarantines it
  std::string error;

  // The journaled records, traces and deltas, come from an uninterrupted run.
  const std::string reference_path = ::testing::TempDir() + "/sink_contract_reference";
  std::remove(reference_path.c_str());
  CampaignJournal reference;
  ASSERT_TRUE(reference.open(reference_path, meta, &error)) << error;
  scenario::run_campaign(params, plan, {}, 1, &reference);
  ASSERT_EQ(static_cast<int>(reference.entries().size()), plan.total_traces());

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string path =
        ::testing::TempDir() + "/sink_contract_" + std::to_string(workers);
    std::remove(path.c_str());
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, meta, &error)) << error;
    for (const int index : journaled) {
      const auto& entry = reference.entries().at(index);
      ASSERT_TRUE(journal.append(entry.trace, entry.delta));
    }

    auto options = scenario::campaign_options(params, {}, workers);
    options.halt_after_traces = 10;  // of the 13 live traces
    ParallelCampaign campaign(poisoned_factory(params, {poisoned}), options);
    campaign.set_journal(&journal);
    int calls = 0;  // deliberately not atomic
    std::vector<Trace> delivered;
    campaign.run(plan, [&](Trace trace) {
      ++calls;
      delivered.push_back(std::move(trace));
    });

    // Every delivered trace is in the journal (replayed, or appended
    // before it was committed) and every journaled trace was delivered.
    EXPECT_EQ(calls, static_cast<int>(journal.entries().size()));
    EXPECT_EQ(calls, campaign.traces_completed());
    ASSERT_EQ(delivered.size(), journal.entries().size());
    std::vector<Trace> expected;
    auto entry = journal.entries().begin();
    for (std::size_t i = 0; i < delivered.size(); ++i, ++entry) {
      EXPECT_EQ(delivered[i].index, entry->first) << "out of plan order";
      expected.push_back(reference.entries().at(entry->first).trace);
    }
    EXPECT_EQ(to_csv(delivered), to_csv(expected));

    ASSERT_EQ(campaign.failures().size(), 1u);
    EXPECT_EQ(campaign.failures()[0].index, poisoned);
    EXPECT_FALSE(journal.has(poisoned));
    // The halt left a hole: of the 16 traces, 3 replayed and 10 ran live,
    // the poisoned one among them.
    EXPECT_EQ(calls, static_cast<int>(journaled.size()) + 9);
    if (workers == 1) {
      std::vector<int> indices;
      for (const auto& trace : delivered) indices.push_back(trace.index);
      EXPECT_EQ(indices, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14}));
    }
    std::remove(path.c_str());
  }
  std::remove(reference_path.c_str());
}

// The observability half of the determinism contract: the campaign-scoped
// metrics + drop-ledger snapshot -- merged from per-trace shard deltas in
// plan order -- must encode to the same JSON bytes at one worker as at 2
// and 8.
TEST(ParallelCampaign, MetricsByteIdenticalToSequential) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const ProbeOptions options;

  const auto one_worker_obs = scenario::run_campaign(params, plan, options).metrics;
  const auto one_worker_json = obs::to_json(one_worker_obs);

  // The campaign must actually have produced substance to compare: packet
  // counters, probe counters, and attributed drops.
  ASSERT_TRUE(one_worker_obs.metrics.families.contains("net_packets_transmitted_total"));
  ASSERT_TRUE(one_worker_obs.metrics.families.contains("probe_udp_total"));
  ASSERT_GT(one_worker_obs.ledger.total_drops(), 0u);

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelCampaign::Options exec;
    exec.workers = workers;
    exec.probe = options;
    ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
    campaign.run(plan);
    ASSERT_TRUE(campaign.failures().empty());
    EXPECT_EQ(obs::to_json(campaign.metrics()), one_worker_json);
  }
}

// Loss-autopsy reconciliation: every failed probe in the merged traces has
// exactly one measure-layer probe-timeout ledger entry, so the autopsy
// table's bottom line explains Figure 2's unreachable cells one for one.
TEST(ParallelCampaign, ProbeTimeoutsReconcileWithFailedProbes) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  ParallelCampaign::Options exec;
  exec.workers = 4;
  ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
  const auto traces = campaign.run(plan);
  ASSERT_TRUE(campaign.failures().empty());

  std::uint64_t failed_probes = 0;
  for (const auto& trace : traces) {
    for (const auto& server : trace.servers) {
      failed_probes += !server.udp_plain.reachable;
      failed_probes += !server.udp_ect0.reachable;
      failed_probes += !server.tcp_plain.connected;
      failed_probes += !server.tcp_ecn.connected;
    }
  }
  ASSERT_GT(failed_probes, 0u);
  EXPECT_EQ(campaign.metrics().ledger.drops_for_cause("probe-timeout"), failed_probes);
}

// Runtime (executor) metrics are intentionally separate from the
// deterministic campaign snapshot, but their totals must still add up.
TEST(ParallelCampaign, RuntimeMetricsAccountForEveryTrace) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  ParallelCampaign::Options exec;
  exec.workers = 4;
  ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
  campaign.run(plan);

  const auto progress = campaign.progress();
  EXPECT_EQ(progress.total, plan.total_traces());
  EXPECT_EQ(progress.completed, plan.total_traces());
  EXPECT_EQ(progress.failed, 0);
  EXPECT_EQ(progress.in_flight, 0);
  int by_vantage = 0;
  for (const auto& [vantage, count] : progress.completed_by_vantage) by_vantage += count;
  EXPECT_EQ(by_vantage, plan.total_traces());
  // The live plane's /progress body renders the same snapshot.
  EXPECT_EQ(progress.to_json(),
            R"({"total":9,"completed":9,"failed":0,"in_flight":0,)"
            R"("completed_by_vantage":{"EC2 Tok":2,"EC2 Vir":2,"McQuistin home":1,)"
            R"("Perkins home":3,"UGla wless":1}})");

  const auto runtime = campaign.runtime_metrics();
  ASSERT_TRUE(runtime.families.contains("worker_traces_total"));
  std::uint64_t claimed = 0;
  for (const auto& [labels, value] : runtime.families.at("worker_traces_total").samples) {
    claimed += value.counter;
  }
  EXPECT_EQ(claimed, static_cast<std::uint64_t>(plan.total_traces()));
}

// Concurrency stress: a world where the greylisting and rate-limiting
// failure-injection machinery fires constantly, plus traces that throw
// mid-campaign from several workers at once. No trace may be lost or
// duplicated, and the failed ones must be reported, not silently dropped.
TEST(ParallelCampaign, StressNoLostOrDuplicatedTracesWhenWorkersThrow) {
  auto params = scenario::WorldParams::small(91);
  params.server_count = 16;
  params.greylist_flaky_prob = 0.25;  // constant warm-up churn (Figure 2b)
  params.greylist_dead_prob = 0.05;   // wedged firewalls
  params.rate_limited_fraction = 0.3; // heavy NTP rate limiting
  params.offline_prob = 0.15;         // heavy failure injection
  const auto plan = four_vantage_plan();
  const int total = plan.total_traces();

  const std::set<int> poisoned = {1, 5, 11};
  ParallelCampaign::Options options;
  options.workers = 8;
  ParallelCampaign campaign(poisoned_factory(params, poisoned), options);

  const auto traces = campaign.run(plan);
  EXPECT_EQ(static_cast<int>(traces.size()), total - static_cast<int>(poisoned.size()));
  EXPECT_EQ(campaign.traces_completed(), total - static_cast<int>(poisoned.size()));

  // No duplicates, no resurrections of poisoned traces, order preserved.
  std::set<int> seen;
  int last_index = -1;
  for (const auto& trace : traces) {
    EXPECT_TRUE(seen.insert(trace.index).second) << "duplicate trace " << trace.index;
    EXPECT_FALSE(poisoned.contains(trace.index)) << "poisoned trace survived";
    EXPECT_GT(trace.index, last_index) << "merge order broken";
    last_index = trace.index;
    EXPECT_EQ(trace.servers.size(), static_cast<std::size_t>(params.server_count));
  }

  ASSERT_EQ(campaign.failures().size(), poisoned.size());
  for (const auto& failure : campaign.failures()) {
    EXPECT_TRUE(poisoned.contains(failure.index));
    EXPECT_NE(failure.message.find("injected failure"), std::string::npos);
  }

  // The surviving traces still match a clean one-worker run of the same
  // seed: a neighbour's crash must not perturb anyone else's results.
  const auto reference = scenario::run_campaign(params, plan).traces;
  ASSERT_EQ(static_cast<int>(reference.size()), total);
  std::ostringstream expected;
  std::vector<Trace> kept;
  for (const auto& trace : reference) {
    if (!poisoned.contains(trace.index)) kept.push_back(trace);
  }
  write_traces_csv(expected, kept);
  EXPECT_EQ(to_csv(traces), expected.str());
}

}  // namespace
}  // namespace ecnprobe::measure
