#include "ecnprobe/netsim/sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::netsim {
namespace {

using namespace ecnprobe::util::literals;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + 30_ms);
}

TEST(Simulator, SameTimestampFiresFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime inner_time;
  sim.schedule(10_ms, [&] {
    sim.schedule(15_ms, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, SimTime::zero() + 25_ms);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule(10_ms, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fires = 0;
  auto handle = sim.schedule(1_ms, [&] { ++fires; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  sim.run();
  EXPECT_EQ(fires, 1);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.run_until(SimTime::zero() + 20_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::zero() + 20_ms);
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesTimeOnEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime::zero() + 5_s);
  EXPECT_EQ(sim.now(), SimTime::zero() + 5_s);
}

TEST(Simulator, RunLimitBoundsWork) {
  Simulator sim;
  int count = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule(1_ms, tick);
  };
  sim.schedule(1_ms, tick);
  const auto fired = sim.run(100);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(count, 100);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimDuration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, CountsProcessedAndPending) {
  Simulator sim;
  sim.schedule(1_ms, [] {});
  sim.schedule(2_ms, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, IdleCallbacksFireOnlyWhenQueueDrains) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2_ms, [&] { order.push_back(1); });
  sim.schedule_when_idle([&] {
    order.push_back(2);
    // Work scheduled by an idle callback runs before the next idle one.
    sim.schedule(1_ms, [&] { order.push_back(3); });
  });
  sim.schedule_when_idle([&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.idle_callbacks_pending(), 0u);
}

TEST(Simulator, ClearPendingDropsEventsAndIdleCallbacks) {
  Simulator sim;
  bool fired = false;
  sim.schedule(1_ms, [&] { fired = true; });
  sim.schedule_when_idle([&] { fired = true; });
  sim.clear_pending();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.idle_callbacks_pending(), 0u);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, SameNanosecondTieBreakIsSubmissionOrderOnBothSchedulers) {
  // The total event order is (when, seq) with seq assigned at submission.
  // schedule() and post() draw from the same counter, so events landing on
  // the same nanosecond fire in exact submission order regardless of how
  // they were submitted.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5_ms, [&] { order.push_back(0); });
  sim.post(5_ms, [&] { order.push_back(1); });
  sim.schedule(5_ms, [&] { order.push_back(2); });
  sim.post(5_ms, [&] { order.push_back(3); });
  // An earlier event submitted later still fires first (time dominates).
  sim.schedule(1_ms, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3}));
}

TEST(Simulator, StormFiresEveryLiveEventOnceInWhenSeqOrder) {
  // A randomized schedule / post / cancel workload: seed events, some of
  // which post a same-instant child when they fire (the recursive shape
  // real protocol timers have), and every third handle cancelled before
  // the run. Every event enters through submit(), so submission i is the
  // simulator's seq i.
  for (const std::uint64_t seed : {1u, 7u, 99u, 12345u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Simulator sim;
    util::Rng rng(seed);
    struct Submission {
      std::int64_t when_ns;
      bool cancelled = false;
      int fired = 0;
    };
    std::vector<Submission> submissions;
    std::vector<std::pair<std::int64_t, std::size_t>> fired;  // (when, seq), as fired
    std::function<EventHandle(SimDuration, bool)> submit = [&](SimDuration delay,
                                                               bool handle) {
      const std::size_t seq = submissions.size();
      submissions.push_back({(sim.now() + delay).count_nanos()});
      const auto fn = [&, seq, handle] {
        EXPECT_EQ(sim.now().count_nanos(), submissions[seq].when_ns);
        fired.emplace_back(sim.now().count_nanos(), seq);
        ++submissions[seq].fired;
        // A same-instant child fires after everything already queued for
        // this instant.
        if (handle && rng.next_below(2) == 0) submit(SimDuration{}, false);
      };
      if (handle) return sim.schedule(delay, fn);
      sim.post(delay, fn);
      return EventHandle{};
    };
    std::vector<std::pair<EventHandle, std::size_t>> handles;
    for (int i = 0; i < 200; ++i) {
      const auto delay = SimDuration::nanos(static_cast<std::int64_t>(rng.next_below(50'000)));
      const bool handle = rng.next_below(3) != 0;
      const std::size_t seq = submissions.size();
      auto event = submit(delay, handle);
      if (handle) handles.emplace_back(std::move(event), seq);
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {
      handles[i].first.cancel();
      submissions[handles[i].second].cancelled = true;
    }
    sim.run();

    ASSERT_FALSE(fired.empty());
    for (std::size_t i = 1; i < fired.size(); ++i) {
      EXPECT_LT(fired[i - 1], fired[i]) << "fired out of (when, seq) order at " << i;
    }
    for (std::size_t seq = 0; seq < submissions.size(); ++seq) {
      EXPECT_EQ(submissions[seq].fired, submissions[seq].cancelled ? 0 : 1) << "seq " << seq;
    }
  }
}

TEST(Simulator, RunUntilCancelledFrontPullsInNextLiveEvent) {
  // The historical run_until() edge: it looks at the earliest queued event,
  // cancelled or not, and firing then skips past the cancelled one -- so a
  // cancelled event at <= `until` lets a live event *beyond* `until` fire.
  // It is part of the golden event order.
  Simulator sim;
  std::vector<int> order;
  auto handle = sim.schedule(SimDuration::nanos(100), [&order] { order.push_back(1); });
  sim.schedule(SimDuration::nanos(500), [&order] { order.push_back(2); });
  handle.cancel();
  const auto fired = sim.run_until(SimTime::from_nanos(200));
  EXPECT_EQ(fired, 1u) << "cancelled front event pulls in the next live one";
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(sim.now().count_nanos(), 500);
}

TEST(Simulator, SecondThreadUseThrows) {
  // Each ParallelCampaign worker owns its simulator outright; the ownership
  // assertion turns an accidental cross-thread share into a loud failure
  // instead of a data race.
  Simulator sim;
  sim.schedule(1_ms, [] {});  // binds ownership to this thread
  bool threw = false;
  std::thread other([&] {
    try {
      sim.schedule(1_ms, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  sim.run();  // still usable from the owning thread
}

}  // namespace
}  // namespace ecnprobe::netsim
