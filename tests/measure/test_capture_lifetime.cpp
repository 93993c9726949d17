// Capture lifetime under the campaign executor: a vantage's capture holds
// the running trace's packets while the shard collects that trace, and
// nothing -- not even capacity -- once the trace commits. Without this a
// worker keeps every vantage's latest trace for the whole campaign.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

scenario::WorldParams lifetime_params() {
  auto p = scenario::WorldParams::small(77);
  p.server_count = 24;
  p.offline_prob = 0.06;
  return p;
}

CampaignPlan lifetime_plan() {
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"EC2 Vir", 1, 1});
  plan.entries.push_back({"UGla wless", 2, 2});
  return plan;
}

/// What the decorators saw, shared by every worker's shard.
struct Observed {
  std::mutex mutex;
  std::map<int, std::size_t> packets_at_collect;  ///< first collect per trace
  std::vector<std::string> unreleased;            ///< captures alive past a commit
};

/// WorldShard decorator: counts the running vantage's capture when the
/// executor collects the trace, and checks at every later trace start
/// (and at shard teardown, after the last commit) that no vantage still
/// holds a packet or a byte of capture storage. Throws once from
/// collect_trace_metrics() for `poisoned`, so that trace takes the
/// quarantine path after its packets were recorded.
class LifetimeShard final : public CampaignShard {
public:
  LifetimeShard(const scenario::WorldParams& params, Observed& observed, int poisoned)
      : inner_(params), observed_(observed), poisoned_(poisoned),
        vantages_(inner_.vantages()) {}
  ~LifetimeShard() override { check_released("teardown"); }
  LifetimeShard(const LifetimeShard&) = delete;
  LifetimeShard& operator=(const LifetimeShard&) = delete;

  netsim::Simulator& sim() override { return inner_.sim(); }
  std::map<std::string, Vantage*> vantages() override { return vantages_; }
  std::vector<wire::Ipv4Address> servers() override { return inner_.servers(); }

  void begin_trace(const std::string& vantage, int batch, int index) override {
    check_released("start of trace " + std::to_string(index));
    inner_.begin_trace(vantage, batch, index);
    vantage_ = vantage;
    index_ = index;
  }

  obs::ObsSnapshot collect_trace_metrics() override {
    bool poison = false;
    {
      std::lock_guard<std::mutex> lock(observed_.mutex);
      const auto size = vantages_.at(vantage_)->capture().packets().size();
      poison = observed_.packets_at_collect.emplace(index_, size).second && index_ == poisoned_;
    }
    if (poison) throw std::runtime_error("poisoned after the run");
    return inner_.collect_trace_metrics();
  }
  std::vector<obs::FlightEvent> collect_trace_events() override {
    return inner_.collect_trace_events();
  }
  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    inner_.quarantine_trace(vantage, batch, index);
  }

private:
  void check_released(const std::string& when) {
    std::lock_guard<std::mutex> lock(observed_.mutex);
    for (const auto& [name, vantage] : vantages_) {
      const auto& packets = vantage->capture().packets();
      if (!packets.empty() || packets.capacity() != 0) {
        observed_.unreleased.push_back(name + " at " + when + ": " +
                                       std::to_string(packets.size()) + " packets, capacity " +
                                       std::to_string(packets.capacity()));
      }
    }
  }

  scenario::WorldShard inner_;
  Observed& observed_;
  int poisoned_;
  std::map<std::string, Vantage*> vantages_;
  std::string vantage_;
  int index_ = -1;
};

/// Packets a standalone run of each planned trace leaves in its vantage's
/// capture: the count the executor's shard must see while collecting.
std::vector<std::size_t> standalone_packets(const scenario::WorldParams& params,
                                            const CampaignPlan& plan) {
  const auto schedule = expand_schedule(plan);
  std::vector<std::size_t> out;
  scenario::World world(params);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const int index = static_cast<int>(i);
    world.begin_trace_epoch(schedule[i].vantage, schedule[i].batch, index);
    auto& vantage = world.vantage(schedule[i].vantage);
    vantage.capture().clear();
    TraceRunner runner(vantage, world.server_addresses(), ProbeOptions{});
    bool done = false;
    runner.run(schedule[i].batch, index, [&done](Trace) { done = true; });
    world.sim().run();
    EXPECT_TRUE(done) << "standalone trace " << index << " stalled";
    out.push_back(vantage.capture().packets().size());
  }
  return out;
}

void expect_trace_scoped_capture(int workers, int poisoned) {
  SCOPED_TRACE("workers=" + std::to_string(workers) + " poisoned=" + std::to_string(poisoned));
  const auto params = lifetime_params();
  const auto plan = lifetime_plan();
  const auto expected = standalone_packets(params, plan);

  Observed observed;
  ParallelCampaign campaign(
      [&](int) -> std::unique_ptr<CampaignShard> {
        return std::make_unique<LifetimeShard>(params, observed, poisoned);
      },
      scenario::campaign_options(params, {}, workers));
  const auto traces = campaign.run(plan);

  const int total = plan.total_traces();
  EXPECT_EQ(static_cast<int>(traces.size()), poisoned >= 0 ? total - 1 : total);
  EXPECT_EQ(campaign.failures().size(), poisoned >= 0 ? 1u : 0u);
  ASSERT_EQ(static_cast<int>(observed.packets_at_collect.size()), total);
  for (const auto& [index, packets] : observed.packets_at_collect) {
    EXPECT_GT(packets, 0u) << "trace " << index << " captured nothing";
    EXPECT_EQ(packets, expected[static_cast<std::size_t>(index)]) << "trace " << index;
  }
  EXPECT_TRUE(observed.unreleased.empty())
      << observed.unreleased.size() << " captures outlived their trace, first: "
      << observed.unreleased.front();
}

TEST(CaptureLifetime, HeldWhileCollectingAndReleasedAtCommitWithOneWorker) {
  expect_trace_scoped_capture(1, -1);
}

TEST(CaptureLifetime, HeldWhileCollectingAndReleasedAtCommitWithTwoWorkers) {
  expect_trace_scoped_capture(2, -1);
}

TEST(CaptureLifetime, QuarantinedTraceReleasesItsCapture) {
  expect_trace_scoped_capture(1, 2);
  expect_trace_scoped_capture(2, 3);
}

}  // namespace
}  // namespace ecnprobe::measure
