// Differential scheduler suite: the calendar queue and the legacy binary
// heap must be observationally indistinguishable. Two layers of evidence:
//
//  1. Simulator-level event-order storms -- randomized schedule / post /
//     cancel workloads fire in byte-identical order on both backends.
//  2. Whole campaigns -- across seeds and worker counts {1, 2, 8}, the
//     results CSV, the drop ledger and metrics JSON, and the flight-
//     recorder stream produced under ECNPROBE_SCHEDULER=heap equal the
//     calendar scheduler's output byte for byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/netsim/sim.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/rng.hpp"

namespace ecnprobe {
namespace {

using netsim::SchedulerKind;
using netsim::Simulator;
using util::SimDuration;

/// Replays one randomized scheduling workload on a simulator and returns
/// the order event labels fired in.
std::vector<int> storm_fire_order(SchedulerKind kind, std::uint64_t seed) {
  Simulator sim(kind);
  util::Rng rng(seed);
  std::vector<int> order;
  std::vector<netsim::EventHandle> handles;
  int label = 0;

  // Seed events, some of which schedule more events when they fire -- the
  // recursive shape real protocol timers have.
  for (int i = 0; i < 200; ++i) {
    const auto delay = SimDuration::nanos(static_cast<std::int64_t>(rng.next_below(50'000)));
    const int my_label = label++;
    if (rng.next_below(3) == 0) {
      sim.post(delay, [&order, my_label] { order.push_back(my_label); });
    } else {
      handles.push_back(sim.schedule(delay, [&sim, &order, &rng, &label, my_label] {
        order.push_back(my_label);
        if (rng.next_below(2) == 0) {
          const int child = label++;
          // Same-instant child: must fire after everything already queued
          // for this instant (FIFO), a case the old heap got right only by
          // accident of its comparator and the new one pins by contract.
          sim.post(SimDuration{}, [&order, child] { order.push_back(child); });
        }
      }));
    }
  }
  // Cancel a deterministic subset before running.
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  sim.run();
  return order;
}

TEST(SchedulerDifferential, StormFireOrderIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {1u, 7u, 99u, 12345u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto calendar = storm_fire_order(SchedulerKind::Calendar, seed);
    const auto heap = storm_fire_order(SchedulerKind::LegacyHeap, seed);
    ASSERT_FALSE(calendar.empty());
    EXPECT_EQ(calendar, heap);
  }
}

TEST(SchedulerDifferential, RunUntilCancelledEdgeMatches) {
  // The historical run_until() quirk: a cancelled event at <= `until` lets
  // fire_next skip to a live event *beyond* `until`. Both backends must
  // reproduce it identically (it is part of the golden event order).
  for (const auto kind : {SchedulerKind::Calendar, SchedulerKind::LegacyHeap}) {
    Simulator sim(kind);
    std::vector<int> order;
    auto handle = sim.schedule(SimDuration::nanos(100), [&order] { order.push_back(1); });
    sim.schedule(SimDuration::nanos(500), [&order] { order.push_back(2); });
    handle.cancel();
    const auto fired = sim.run_until(util::SimTime::from_nanos(200));
    EXPECT_EQ(fired, 1u) << "cancelled front event pulls in the next live one";
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(sim.now().count_nanos(), 500);
  }
}

// -- campaign-level equivalence ---------------------------------------------

scenario::WorldParams diff_params(std::uint64_t seed) {
  auto p = scenario::WorldParams::small(seed);
  p.server_count = 18;
  p.ect_udp_firewalled_servers = 2;
  p.ect_required_servers = 1;
  p.offline_prob = 0.05;
  p.flight_recorder_capacity = 512;  // arm the recorder: events are part of the diff
  return p;
}

measure::CampaignPlan diff_plan() {
  measure::CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"EC2 Vir", 1, 2});
  plan.entries.push_back({"UGla wired", 2, 1});
  return plan;
}

struct CampaignArtefacts {
  std::string csv;
  std::string metrics_json;
  std::vector<obs::FlightEvent> flights;
};

std::string traces_csv(const std::vector<measure::Trace>& traces) {
  std::ostringstream os;
  measure::write_traces_csv(os, traces);
  return os.str();
}

/// Runs the campaign on `workers` workers with the scheduler forced via the
/// environment (the same selection mechanism operators use).
CampaignArtefacts run_with_scheduler(const char* scheduler, std::uint64_t seed,
                                     int workers) {
  if (scheduler != nullptr) {
    ::setenv("ECNPROBE_SCHEDULER", scheduler, 1);
  } else {
    ::unsetenv("ECNPROBE_SCHEDULER");
  }
  auto run = scenario::run_campaign(diff_params(seed), diff_plan(), {}, workers);
  ::unsetenv("ECNPROBE_SCHEDULER");
  return {traces_csv(run.traces), obs::to_json(run.metrics), std::move(run.flights)};
}

TEST(SchedulerDifferential, CampaignArtefactsByteIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {11u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto calendar = run_with_scheduler("calendar", seed, /*workers=*/1);
    const auto heap = run_with_scheduler("heap", seed, /*workers=*/1);
    ASSERT_FALSE(calendar.csv.empty());
    EXPECT_EQ(calendar.csv, heap.csv);
    EXPECT_EQ(calendar.metrics_json, heap.metrics_json);
    ASSERT_FALSE(calendar.flights.empty());
    EXPECT_EQ(calendar.flights, heap.flights)
        << "flight-recorder stream (full wire bytes) must not depend on scheduler";
  }
}

TEST(SchedulerDifferential, ParallelCampaignIdenticalAcrossBackendsAndWorkers) {
  const std::uint64_t seed = 42;
  const auto one_worker = run_with_scheduler("calendar", seed, /*workers=*/1);
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto calendar = run_with_scheduler("calendar", seed, workers);
    const auto heap = run_with_scheduler("heap", seed, workers);
    EXPECT_EQ(calendar.csv, heap.csv);
    EXPECT_EQ(calendar.metrics_json, heap.metrics_json);
    EXPECT_EQ(calendar.flights, heap.flights);
    EXPECT_EQ(calendar.csv, one_worker.csv)
        << "sharded run must equal one worker on either scheduler";
  }
}

}  // namespace
}  // namespace ecnprobe
