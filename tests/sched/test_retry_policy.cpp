// Retry-schedule construction and SupervisorConfig validation/round-trip.
// The paper-fixed policy is load-bearing for the byte-identity contract:
// it must produce the inline loop's exact schedule while consuming zero
// RNG draws.
#include <gtest/gtest.h>

#include <stdexcept>

#include "ecnprobe/sched/pacer.hpp"
#include "ecnprobe/sched/policy.hpp"

namespace ecnprobe::sched {
namespace {

using util::SimDuration;

TEST(RetryPolicy, PaperFixedScheduleIsFlatAndDrawsNothing) {
  RetryPolicy policy;  // defaults: PaperFixed, 5 x 1s
  util::Rng rng(1234);
  util::Rng untouched(1234);
  const auto schedule = build_retry_schedule(policy, rng);
  ASSERT_EQ(schedule.size(), 5u);
  for (const auto& t : schedule) EXPECT_EQ(t, SimDuration::seconds(1));
  // The stream position must be exactly where it started.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(RetryPolicy, BackoffWithoutJitterIsTheTextbookSequence) {
  RetryPolicy policy;
  policy.kind = RetryPolicy::Kind::Backoff;
  policy.max_attempts = 5;
  policy.base_timeout = SimDuration::seconds(1);
  policy.backoff_factor = 2.0;
  policy.max_timeout = SimDuration::seconds(8);
  util::Rng rng(1);
  util::Rng untouched(1);
  const auto schedule = build_retry_schedule(policy, rng);
  ASSERT_EQ(schedule.size(), 5u);
  EXPECT_EQ(schedule[0], SimDuration::seconds(1));
  EXPECT_EQ(schedule[1], SimDuration::seconds(2));
  EXPECT_EQ(schedule[2], SimDuration::seconds(4));
  EXPECT_EQ(schedule[3], SimDuration::seconds(8));
  EXPECT_EQ(schedule[4], SimDuration::seconds(8));  // capped
  // jitter == 0 must also be draw-free.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(RetryPolicy, BudgetDropsAttemptsThatDoNotFit) {
  RetryPolicy policy;
  policy.kind = RetryPolicy::Kind::Backoff;
  policy.max_attempts = 5;
  policy.base_timeout = SimDuration::seconds(1);
  policy.backoff_factor = 2.0;
  policy.max_timeout = SimDuration::seconds(8);
  policy.total_budget = SimDuration::from_seconds(3.5);
  util::Rng rng(1);
  const auto schedule = build_retry_schedule(policy, rng);
  // 1s fits, 1+2 = 3s fits, 1+2+4 = 7s > 3.5s: dropped.
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0], SimDuration::seconds(1));
  EXPECT_EQ(schedule[1], SimDuration::seconds(2));
}

TEST(RetryPolicy, FirstAttemptSurvivesAnyBudget) {
  RetryPolicy policy;
  policy.kind = RetryPolicy::Kind::Backoff;
  policy.max_attempts = 3;
  policy.base_timeout = SimDuration::seconds(2);
  policy.total_budget = SimDuration::seconds(2);
  util::Rng rng(1);
  const auto schedule = build_retry_schedule(policy, rng);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0], SimDuration::seconds(2));
}

TEST(RetryPolicy, JitteredScheduleIsDeterministicPerSeed) {
  RetryPolicy policy;
  policy.kind = RetryPolicy::Kind::Backoff;
  policy.jitter = 0.3;
  util::Rng a(99), b(99), c(100);
  const auto sa = build_retry_schedule(policy, a);
  const auto sb = build_retry_schedule(policy, b);
  const auto sc = build_retry_schedule(policy, c);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);  // different seed, different jitter
}

TEST(SupervisorConfig, PaperDefaultPredicate) {
  EXPECT_TRUE(SupervisorConfig::paper_default().is_paper_default());

  SupervisorConfig config;
  config.retry.kind = RetryPolicy::Kind::Backoff;
  EXPECT_FALSE(config.is_paper_default());

  config = {};
  config.breaker.enabled = true;
  EXPECT_FALSE(config.is_paper_default());

  config = {};
  config.pacer.enabled = true;
  EXPECT_FALSE(config.is_paper_default());

  config = {};
  config.watchdog.deadline = SimDuration::seconds(30);
  EXPECT_FALSE(config.is_paper_default());

  // Tuning knobs that only matter under backoff leave the default intact.
  config = {};
  config.retry.max_attempts = 7;
  EXPECT_TRUE(config.is_paper_default());
}

TEST(SupervisorConfig, ValidateRejectsOutOfRangeFields) {
  const auto expect_invalid = [](auto mutate) {
    SupervisorConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_invalid([](SupervisorConfig& c) { c.retry.max_attempts = 0; });
  expect_invalid([](SupervisorConfig& c) { c.retry.base_timeout = {}; });
  expect_invalid([](SupervisorConfig& c) { c.retry.backoff_factor = 0.5; });
  expect_invalid([](SupervisorConfig& c) { c.retry.max_timeout = SimDuration::millis(1); });
  expect_invalid([](SupervisorConfig& c) { c.retry.jitter = 1.0; });
  expect_invalid([](SupervisorConfig& c) { c.retry.jitter = -0.1; });
  expect_invalid([](SupervisorConfig& c) {
    c.retry.total_budget = SimDuration::millis(10);  // < one base timeout
  });
  expect_invalid([](SupervisorConfig& c) {
    c.retry.hedge_delay = SimDuration::millis(200);  // hedging needs backoff
  });
  expect_invalid([](SupervisorConfig& c) {
    c.breaker.enabled = true;
    c.breaker.failure_threshold = 0;
  });
  expect_invalid([](SupervisorConfig& c) {
    c.breaker.enabled = true;
    c.breaker.half_open_after = 0;
  });
  expect_invalid([](SupervisorConfig& c) { c.pacer.enabled = true; });  // rate 0
  expect_invalid([](SupervisorConfig& c) {
    c.pacer.enabled = true;
    c.pacer.rate_per_sec = 10.0;
    c.pacer.burst = 0;
  });
  EXPECT_NO_THROW(SupervisorConfig::paper_default().validate());
}

TEST(SupervisorConfig, ParseSerializeRoundTrip) {
  const auto parsed = SupervisorConfig::parse(
      "backoff,max-attempts=4,base-ms=500,factor=1.5,max-ms=4000,jitter=0.2,"
      "budget-ms=9000,hedge-ms=250,breaker-failures=2,breaker-half-open=3,"
      "pace-rate=40,pace-burst=4,pace-dest-gap-ms=10,watchdog-ms=20000,seed=7");
  ASSERT_TRUE(parsed) << parsed.error().message;
  EXPECT_EQ(parsed->retry.kind, RetryPolicy::Kind::Backoff);
  EXPECT_EQ(parsed->retry.max_attempts, 4);
  EXPECT_EQ(parsed->retry.base_timeout, SimDuration::millis(500));
  EXPECT_TRUE(parsed->breaker.enabled);
  EXPECT_TRUE(parsed->pacer.enabled);
  EXPECT_EQ(parsed->watchdog.deadline, SimDuration::seconds(20));
  EXPECT_EQ(parsed->seed, 7u);

  const auto reparsed = SupervisorConfig::parse(parsed->serialize());
  ASSERT_TRUE(reparsed) << reparsed.error().message;
  EXPECT_EQ(reparsed->serialize(), parsed->serialize());
}

TEST(SupervisorConfig, LargestValuesBuildTheirScheduleAndPacer) {
  // Every *-ms key at its largest, 1e9 ms, with the widest backoff: the
  // schedule is built in int64 nanoseconds and the config round-trips.
  const auto edges = SupervisorConfig::parse(
      "backoff,max-attempts=100,base-ms=1e9,factor=1000,max-ms=1000000000,jitter=0.999,"
      "budget-ms=0,hedge-ms=1e9,breaker-failures=1048576,breaker-half-open=1048576,"
      "pace-rate=1e-6,pace-burst=1000,pace-dest-gap-ms=1e9,watchdog-ms=1e9,"
      "seed=18446744073709551615");
  ASSERT_TRUE(edges) << edges.error().message;
  EXPECT_EQ(edges->retry.base_timeout, SimDuration::seconds(1'000'000));
  EXPECT_EQ(edges->watchdog.deadline, SimDuration::seconds(1'000'000));
  util::Rng rng(edges->seed);
  const auto schedule = build_retry_schedule(edges->retry, rng);
  ASSERT_EQ(schedule.size(), 100u);
  for (const auto t : schedule) {
    EXPECT_GT(t.count_nanos(), 0);
    EXPECT_LT(t.count_nanos(), 2'000'000'000'000'000);
  }
  // The slowest, deepest bucket holds 1e3 steps of 1e15 ns each; the
  // widest per-destination gap holds a second send back by 1e15 ns.
  Pacer pacer(edges->pacer);
  const auto dest = wire::Ipv4Address(11, 0, 0, 1);
  EXPECT_EQ(pacer.acquire(util::SimTime::zero(), dest).count_nanos(), 0);
  EXPECT_EQ(pacer.acquire(util::SimTime::zero(), dest).count_nanos(),
            1'000'000'000'000'000);
  const auto reparsed = SupervisorConfig::parse(edges->serialize());
  ASSERT_TRUE(reparsed) << reparsed.error().message;
  EXPECT_EQ(reparsed->serialize(), edges->serialize());
  // One past each edge is refused (SupervisorConfig.ParseRejectsGarbage).
}

TEST(SupervisorConfig, ParseRejectsGarbage) {
  EXPECT_FALSE(SupervisorConfig::parse(""));
  EXPECT_FALSE(SupervisorConfig::parse("bogus"));
  EXPECT_FALSE(SupervisorConfig::parse("paper,unknown-key=1"));
  EXPECT_FALSE(SupervisorConfig::parse("backoff,jitter=1.5"));
  EXPECT_FALSE(SupervisorConfig::parse("backoff,max-attempts=0"));
  EXPECT_FALSE(SupervisorConfig::parse("backoff,base-ms=nope"));
  EXPECT_FALSE(SupervisorConfig::parse("paper,hedge-ms=100"));  // needs backoff
  EXPECT_FALSE(SupervisorConfig::parse("backoff,pace-rate=0"));
  // Values are read whole and finite, within their key's range.
  for (const char* spec :
       {"backoff,base-ms=1000000001", "backoff,max-ms=1e300", "backoff,budget-ms=inf",
        "backoff,hedge-ms=1000000000.5", "paper,watchdog-ms=inf",
        "paper,pace-dest-gap-ms=1000000001", "paper,pace-rate=9.9e-7",
        "paper,pace-rate=1.0000001e9", "paper,pace-rate=inf",
        "paper,pace-rate=1,pace-burst=1001",
        "backoff,max-attempts=101", "backoff,factor=1000.5", "backoff,factor=inf",
        "backoff,jitter=1", "paper,breaker-failures=1048577", "backoff,seed=-1",
        "backoff,seed=18446744073709551616", "backoff,max-attempts=0x5",
        "backoff,base-ms=+500", "backoff,base-ms=500,base-ms=600"}) {
    EXPECT_FALSE(SupervisorConfig::parse(spec)) << spec;
  }
  EXPECT_EQ(SupervisorConfig::parse("paper,pace-rate=inf").error().message,
            "pace-rate must be a number in [1e-6, 1e9], got 'inf'");
  EXPECT_EQ(SupervisorConfig::parse("backoff,base-ms=1000000001").error().message,
            "base-ms must be a number in (0, 1e9], got '1000000001'");
  EXPECT_TRUE(SupervisorConfig::parse("paper"));
  EXPECT_TRUE(SupervisorConfig::parse("backoff"));
}

}  // namespace
}  // namespace ecnprobe::sched
