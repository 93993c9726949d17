// Flight-recorder integration through the campaign executor: the recorded
// event stream (and both export formats) must be byte-identical at one
// worker and at 2 and 8, and a fixed-seed capture must match the committed
// golden pcapng byte for byte (regenerate with ECNPROBE_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "ecnprobe/obs/flight_export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

WorldParams recording_params() {
  auto p = WorldParams::small(61);
  p.server_count = 12;
  p.ect_udp_firewalled_servers = 2;
  p.offline_prob = 0.08;
  p.flight_recorder_capacity = 1 << 16;
  return p;
}

measure::CampaignPlan recording_plan() {
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"UGla wired", 1, 1});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  plan.entries.push_back({"EC2 Tok", 2, 1});
  return plan;
}

std::string pcapng_bytes(const std::vector<obs::FlightEvent>& events) {
  std::ostringstream os;
  obs::write_pcapng(os, events);
  return os.str();
}

TEST(WorldFlightRecorder, DisabledByDefaultAndRecordsNothing) {
  auto params = recording_params();
  params.flight_recorder_capacity = 0;
  World world(params);
  EXPECT_FALSE(world.obs().recorder.armed());
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});
  EXPECT_TRUE(run_campaign(params, plan).flights.empty());
}

TEST(WorldFlightRecorder, SequentialAndShardedRecordingsAreByteIdentical) {
  const auto params = recording_params();
  const auto plan = recording_plan();

  const auto reference = run_campaign(params, plan).flights;
  ASSERT_FALSE(reference.empty());

  // The stream covers the full event taxonomy's core: sends, forwards,
  // replies -- and, with firewalled servers in the world, drops.
  std::set<obs::SpanEvent> kinds;
  for (const auto& event : reference) kinds.insert(event.type);
  EXPECT_TRUE(kinds.contains(obs::SpanEvent::ProbeSent));
  EXPECT_TRUE(kinds.contains(obs::SpanEvent::HopForward));
  EXPECT_TRUE(kinds.contains(obs::SpanEvent::ReplyReceived));
  EXPECT_TRUE(kinds.contains(obs::SpanEvent::PolicyDrop));

  const auto reference_pcap = pcapng_bytes(reference);
  const auto reference_json = obs::to_chrome_trace_json(reference);

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto events = run_campaign(params, plan, {}, workers).flights;
    ASSERT_EQ(events.size(), reference.size());
    EXPECT_TRUE(events == reference);  // structural equality, event for event
    EXPECT_EQ(pcapng_bytes(events), reference_pcap);
    EXPECT_EQ(obs::to_chrome_trace_json(events), reference_json);
  }
}

TEST(WorldFlightRecorder, GoldenPcapngMatchesByteForByte) {
  // Tiny fixed-seed campaign: 3 servers, one trace. The committed capture
  // pins the full export stack -- event taxonomy, span keys, epoch-relative
  // timestamps, wire bytes, pcapng framing. An intentional format change
  // regenerates it with: ECNPROBE_UPDATE_GOLDEN=1 ./test_scenario
  auto params = WorldParams::small(7);
  params.server_count = 3;
  params.flight_recorder_capacity = 4096;
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});

  const auto flights = run_campaign(params, plan).flights;
  const auto bytes = pcapng_bytes(flights);
  ASSERT_FALSE(flights.empty());

  const std::string golden_path = std::string(ECNPROBE_GOLDEN_DIR) + "/flight_small.pcapng";
  if (std::getenv("ECNPROBE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << bytes;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto golden = buffer.str();
  ASSERT_EQ(bytes.size(), golden.size());
  EXPECT_TRUE(bytes == golden) << "flight recording drifted from the golden capture";
}

}  // namespace
}  // namespace ecnprobe::scenario
