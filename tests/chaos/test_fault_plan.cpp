#include "ecnprobe/chaos/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ecnprobe/chaos/policies.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace ecnprobe::chaos {
namespace {

TEST(FaultPlan, NoneIsDisabled) {
  const auto plan = FaultPlan::parse("none");
  ASSERT_TRUE(plan);
  EXPECT_FALSE(plan->enabled());
  EXPECT_EQ(plan->name, "none");
}

TEST(FaultPlan, EveryNamedProfileParses) {
  for (const auto& name : FaultPlan::profile_names()) {
    const auto plan = FaultPlan::parse(name);
    ASSERT_TRUE(plan) << name;
    EXPECT_EQ(plan->name, name);
    EXPECT_EQ(plan->enabled(), name != "none") << name;
  }
}

TEST(FaultPlan, OverridesApplyOnTopOfProfile) {
  const auto plan = FaultPlan::parse("wan-chaos,corrupt-prob=0.5,chaos-links=9");
  ASSERT_TRUE(plan);
  EXPECT_DOUBLE_EQ(plan->corrupt_prob, 0.5);
  EXPECT_EQ(plan->chaos_links, 9);
  // Untouched profile defaults survive.
  EXPECT_DOUBLE_EQ(plan->reorder_prob, 0.30);
}

TEST(FaultPlan, PoisonIsRepeatableAndCrashAfterSticks) {
  const auto plan = FaultPlan::parse("none,poison=3,poison=7,crash-after=13");
  ASSERT_TRUE(plan);
  EXPECT_TRUE(plan->enabled());
  EXPECT_TRUE(plan->poisons(3));
  EXPECT_TRUE(plan->poisons(7));
  EXPECT_FALSE(plan->poisons(5));
  EXPECT_EQ(plan->crash_after_traces, 13);
}

TEST(FaultPlan, MalformedSpecsRejected) {
  EXPECT_FALSE(FaultPlan::parse(""));
  EXPECT_FALSE(FaultPlan::parse("not-a-profile"));
  EXPECT_FALSE(FaultPlan::parse("none,frob=1"));          // unknown key
  EXPECT_FALSE(FaultPlan::parse("none,corrupt-prob"));    // missing '='
  EXPECT_FALSE(FaultPlan::parse("none,corrupt-prob=x"));  // non-numeric
  EXPECT_FALSE(FaultPlan::parse("none,corrupt-prob=-1")); // negative
  EXPECT_FALSE(FaultPlan::parse("none,poison=-2"));
  EXPECT_FALSE(FaultPlan::parse("none,poison=1.5"));
  // Values are read whole and finite, within their key's range.
  for (const char* spec :
       {"none,reorder-window-ms=1000000001", "none,route-flap-period-ms=1e300",
        "none,route-flap-down-ms=inf", "none,corrupt-prob=1.0000001",
        "flaky-servers,short-reply-prob=1.5", "none,corrupt-prob=nan",
        "none,corrupt-prob=0x1", "none,corrupt-prob=+0.5", "none,chaos-links=1048577",
        "none,chaos-links=4.0", "none,poison=1048576", "none,crash-after=1048577",
        "none,corrupt-prob=0.1,corrupt-prob=0.2", "none,=1", "none,,poison=1"}) {
    EXPECT_FALSE(FaultPlan::parse(spec)) << spec;
  }
  EXPECT_EQ(FaultPlan::parse("wan-chaos,reorder-window-ms=inf").error().message,
            "reorder-window-ms must be a number in [0, 1e9], got 'inf'");
  EXPECT_EQ(FaultPlan::parse("wan-chaos,corrupt-prob=7").error().message,
            "corrupt-prob must be a number in [0, 1], got '7'");
}

TEST(FaultPlan, LargestValuesParseAndBuildTheirPolicies) {
  const auto edges = FaultPlan::parse(
      "none,corrupt-prob=1,reorder-prob=1,reorder-window-ms=1e9,route-flap-links=1048576,"
      "route-flap-down-ms=1e9,route-flap-period-ms=1000000000,poison=1048575,"
      "crash-after=1048576");
  ASSERT_TRUE(edges) << edges.error().message;
  EXPECT_DOUBLE_EQ(edges->reorder_window_ms, 1e9);
  EXPECT_TRUE(edges->poisons(1048575));
  // The widest window builds its policies: a held-back packet waits less
  // than 1e15 ns, and the flap schedule still places packets.
  auto dgram = wire::make_udp_datagram(wire::Ipv4Address(10, 0, 0, 1),
                                       wire::Ipv4Address(11, 0, 0, 2), 1000, 123,
                                       std::vector<std::uint8_t>{1, 2}, wire::Ecn::Ect0);
  util::Rng rng(1);
  ReorderPolicy reorder(edges->reorder_prob, edges->reorder_window_ms);
  reorder.on_epoch(7);
  reorder.apply(dgram, rng);
  const auto delay = reorder.take_extra_delay().count_nanos();
  EXPECT_GE(delay, 0);
  EXPECT_LT(delay, 1'000'000'000'000'000);
  RouteFlapPolicy flap(edges->route_flap_down_ms, edges->route_flap_period_ms);
  flap.on_epoch(7);
  flap.apply(dgram, rng, util::SimTime::from_nanos(1));
  flap.apply(dgram, rng, util::SimTime::from_nanos(3'000'000'000'000'000));
  // One past each edge is refused (FaultPlan.MalformedSpecsRejected).
}

TEST(FaultPlan, FingerprintSeparatesPlans) {
  const auto a = FaultPlan::parse("wan-chaos");
  const auto b = FaultPlan::parse("wan-chaos,corrupt-prob=0.021");
  const auto c = FaultPlan::parse("wan-chaos");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(c);
  EXPECT_EQ(a->fingerprint(), c->fingerprint());
  EXPECT_NE(a->fingerprint(), b->fingerprint());
  // Fingerprints are prefixed with the profile name for readable errors.
  EXPECT_EQ(a->fingerprint().rfind("wan-chaos#", 0), 0u);
  // crash-after is executor behaviour, not campaign identity: a run
  // crashed via crash-after=N must be resumable without the crash hook.
  const auto crashing = FaultPlan::parse("wan-chaos,crash-after=3");
  ASSERT_TRUE(crashing);
  EXPECT_EQ(crashing->fingerprint(), a->fingerprint());
  EXPECT_NE(crashing->serialize(), a->serialize());
}

TEST(FaultPlan, SerializeIsCanonical) {
  // Same plan reached via different spellings serialises identically.
  const auto a = FaultPlan::parse("none,poison=7,poison=3");
  const auto b = FaultPlan::parse("none,poison=3,poison=7");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->serialize(), b->serialize());
}

}  // namespace
}  // namespace ecnprobe::chaos
