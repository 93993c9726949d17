// The campaign spec's two forms: the flags `ecnprobe campaign` and
// ntp_pool_study hand to scenario::CampaignSpec::from_args, and the JSON
// keys ecnprobed reads through TenantSpec::from_json. One table of bad
// inputs must be refused by both with the same message; a valid spec
// written both ways must resolve to the same world, plan, probe
// discipline and journal binding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ecnprobe/daemon/spec.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/scenario/spec.hpp"
#include "ecnprobe/util/json.hpp"

namespace ecnprobe::daemon {
namespace {

/// One bad input: a key, its value as flag text, and its value as JSON
/// (nullptr: the flag text as a JSON string).
struct BadInput {
  const char* key;
  const char* text;
  const char* json;
};

const BadInput kBadInputs[] = {
    // Ranges, and values that are not numbers of the field's type.
    {"scale", "0", "0"},
    {"scale", "-1", "-1"},
    {"scale", "4", "4"},
    {"scale", "1.0000001", "1.0000001"},
    {"scale", "banana", "\"banana\""},
    {"seed", "-1", "-1"},
    {"seed", "1.5", "1.5"},
    {"seed", "1e3", "1e3"},
    {"seed", "18446744073709551616", "18446744073709551616"},
    {"traces", "-3", "-3"},
    {"traces", "1.5", "1.5"},
    {"traces", "1048577", "1048577"},
    {"traces", "3x", "\"3x\""},
    {"workers", "0", "0"},
    {"workers", "257", "257"},
    {"workers", "1000", "1000"},
    {"workers", "banana", "\"banana\""},
    // Supervision: every range and cross-field rule of the sched language.
    {"sched", "", nullptr},
    {"sched", "warp-speed", nullptr},
    {"sched", "sometimes", nullptr},
    {"sched", "backoff,max-attempts=banana", nullptr},
    {"sched", "backoff,max-attempts=0", nullptr},
    {"sched", "backoff,base-ms=0", nullptr},
    {"sched", "backoff,base-ms=-100", nullptr},
    {"sched", "backoff,factor=0.5", nullptr},
    {"sched", "backoff,base-ms=500,max-ms=100", nullptr},
    {"sched", "backoff,jitter=1.0", nullptr},
    {"sched", "backoff,jitter=-0.1", nullptr},
    {"sched", "backoff,budget-ms=-1", nullptr},
    {"sched", "backoff,hedge-ms=-5", nullptr},
    {"sched", "paper,hedge-ms=100", nullptr},
    {"sched", "paper,pace-rate=0", nullptr},
    {"sched", "paper,pace-rate=fast", nullptr},
    {"sched", "paper,pace-burst=0", nullptr},
    {"sched", "paper,pace-burst=2", nullptr},
    {"sched", "paper,pace-dest-gap-ms=500", nullptr},
    {"sched", "paper,pace-dest-gap-ms=-2", nullptr},
    {"sched", "paper,breaker-failures=0", nullptr},
    {"sched", "paper,breaker-half-open=0", nullptr},
    {"sched", "paper,watchdog-ms=0", nullptr},
    {"sched", "backoff,seed=-1", nullptr},
    {"sched", "backoff,warp=9", nullptr},
    {"sched", "backoff,base-ms", nullptr},
    {"sched", "paper,pace-rate=inf", nullptr},
    {"sched", "backoff,factor=inf", nullptr},
    {"sched", "backoff,base-ms=inf", nullptr},
    {"sched", "paper,watchdog-ms=1e300", nullptr},
    {"sched", "paper,watchdog-ms=1000000001", nullptr},
    {"sched", "paper,pace-rate=1e-300", nullptr},
    {"sched", "paper,pace-rate=50,pace-burst=1001", nullptr},
    {"sched", "backoff,max-attempts=0x5", nullptr},
    {"sched", "backoff,max-attempts=101", nullptr},
    {"sched", "backoff,base-ms=+500", nullptr},
    {"sched", "backoff,seed=+7", nullptr},
    {"sched", "backoff,base-ms=500,base-ms=600", nullptr},
    {"sched", "backoff,jitter=1.5", nullptr},
    {"sched", "backoff,=5", nullptr},
    {"sched", "backoff,", nullptr},
    // Faults: each value whole, finite and in its key's range.
    {"faults", "lolwut", nullptr},
    {"faults", "none,corrupt-prob=x", nullptr},
    {"faults", "wan-chaos,corrupt-prob=nan", nullptr},
    {"faults", "wan-chaos,corrupt-prob=7", nullptr},
    {"faults", "wan-chaos,reorder-window-ms=inf", nullptr},
    {"faults", "route-flap,route-flap-period-ms=1e300", nullptr},
    {"faults", "route-flap,route-flap-down-ms=1000000001", nullptr},
    {"faults", "none,chaos-links=0x10", nullptr},
    {"faults", "none,poison=+3", nullptr},
    {"faults", "none,crash-after=-1", nullptr},
    {"faults", "wan-chaos,corrupt-prob=0.1,corrupt-prob=0.2", nullptr},
    {"faults", "flaky-servers,short-reply-prob=1.5", nullptr},
    {"faults", "flaky-servers,flaky-server-fraction=1.01", nullptr},
    // Telemetry, the sketch's cell cap included.
    {"telemetry", "nope", nullptr},
    {"telemetry", "sketched,eps=banana", nullptr},
    {"telemetry", "sketched,eps=nan", nullptr},
    {"telemetry", "sketched,eps=1e-9", nullptr},
    {"telemetry", "sketched,seed=-1", nullptr},
    {"telemetry", "sketched,delta=inf", nullptr},
    {"telemetry", "sketched,alpha=1e300", nullptr},
    {"telemetry", "sketched,seed=0x10", nullptr},
    {"telemetry", "sketched,sample-every=+4", nullptr},
    {"telemetry", "sketched,eps=0.01,eps=0.02", nullptr},
    {"telemetry", "sketched,delta=1.5", nullptr},
    {"telemetry", "exact,seed=7", nullptr},
    // Time series, the bare WINDOW_MS form included.
    {"timeseries", "banana", nullptr},
    {"timeseries", "window-ms=0", nullptr},
    {"timeseries", "window-ms=1000,alpha=nan", nullptr},
    {"timeseries", "window-ms=inf", nullptr},
    {"timeseries", "window-ms=1e300", nullptr},
    {"timeseries", "1000000001", nullptr},
    {"timeseries", "0x10", nullptr},
    {"timeseries", "+250", nullptr},
    {"timeseries", "window-ms=250,window-ms=500", nullptr},
    {"timeseries", "alpha=1.5", nullptr},
    // Keys no front end knows.
    {"wokers", "4", "4"},
    {"falts", "none", nullptr},
    {"retry-policy", "backoff", nullptr},
};

TEST(CampaignSpecForms, FlagsAndJsonRefuseEveryBadInputWithOneMessage) {
  for (const auto& input : kBadInputs) {
    const std::string key = input.key;
    const std::string json_value =
        input.json != nullptr ? input.json : util::json_quote(input.text);
    const auto flags = scenario::CampaignSpec::from_args({"--" + key, input.text});
    const auto joined = scenario::CampaignSpec::from_args({"--" + key + "=" + input.text});
    const auto json = TenantSpec::from_json("{\"" + key + "\":" + json_value + "}");
    ASSERT_FALSE(flags) << "flag accepted: --" << key << " " << input.text;
    ASSERT_FALSE(joined) << "flag accepted: --" << key << "=" << input.text;
    ASSERT_FALSE(json) << "JSON accepted: " << key << ":" << json_value;
    EXPECT_EQ(flags.error().message, json.error().message) << key << " " << input.text;
    EXPECT_EQ(joined.error().message, flags.error().message);
    EXPECT_EQ(flags.error().message.rfind("invalid campaign spec: ", 0), 0u)
        << flags.error().message;
  }
}

TEST(CampaignSpecForms, NumberKeysRefuseWithTheirRange) {
  const struct {
    const char* key;
    const char* value;
    const char* range;
  } cases[] = {
      {"scale", "2", "a number in (0, 1]"},
      {"seed", "-1", "an integer in [0, 2^64)"},
      {"traces", "1048577", "an integer in [0, 1048576]"},
      {"workers", "257", "an integer in [1, 256]"},
  };
  for (const auto& c : cases) {
    const auto spec = scenario::CampaignSpec::from_args({std::string("--") + c.key, c.value});
    ASSERT_FALSE(spec) << c.key;
    EXPECT_EQ(spec.error().message, "invalid campaign spec: \"" + std::string(c.key) +
                                        "\" must be " + c.range);
  }
}

TEST(CampaignSpecForms, FlagFormRefusesMissingRepeatedAndStrayArguments) {
  const std::vector<std::vector<std::string>> refused = {
      {"--traces"},                           // no value
      {"--scale", "0.1", "--scale", "0.2"},   // a key twice
      {"--scale=0.1", "--scale", "0.2"},
      {"0.1"},                                // not a flag
      {"-scale", "0.1"},
      {"--", "0.1"},
  };
  for (const auto& args : refused) {
    const auto spec = scenario::CampaignSpec::from_args(args);
    EXPECT_FALSE(spec) << args[0];
  }
  const auto defaults = scenario::CampaignSpec::from_args({});
  ASSERT_TRUE(defaults);
  EXPECT_EQ(*defaults, scenario::CampaignSpec{});
}

TEST(CampaignSpecForms, ValidSpecWrittenBothWaysResolvesIdentically) {
  // CI's supervised configuration: every value converts to the same
  // nanoseconds however it is written.
  const std::string sched =
      "backoff,base-ms=600,factor=2,jitter=0.2,hedge-ms=250,breaker-failures=2,"
      "breaker-half-open=3,watchdog-ms=20000";
  const auto flags = scenario::CampaignSpec::from_args(
      {"--scale", "0.05", "--seed=7", "--traces", "12", "--workers", "3", "--faults",
       "wan-chaos,poison=1", "--telemetry", "sketched,sample-every=4", "--timeseries=250",
       "--sched", sched});
  const auto json = TenantSpec::from_json(
      "{\"tenant\":\"t\",\"scale\":0.05,\"seed\":7,\"traces\":12,\"workers\":3,"
      "\"faults\":\"wan-chaos,poison=1\",\"telemetry\":\"sketched,sample-every=4\","
      "\"timeseries\":\"250\",\"sched\":" + util::json_quote(sched) + "}");
  ASSERT_TRUE(flags) << flags.error().message;
  ASSERT_TRUE(json) << json.error().message;
  EXPECT_EQ(*flags, static_cast<const scenario::CampaignSpec&>(*json));

  const auto a = flags->resolve();
  const auto b = json->resolve();
  EXPECT_EQ(a.params.seed, 7u);
  EXPECT_EQ(a.params.seed, b.params.seed);
  EXPECT_EQ(a.params.server_count, b.params.server_count);
  EXPECT_EQ(a.params.topology.stub_count, b.params.topology.stub_count);
  EXPECT_EQ(a.params.faults.serialize(), b.params.faults.serialize());
  EXPECT_EQ(a.params.faults.fingerprint(), b.params.faults.fingerprint());
  EXPECT_TRUE(a.params.telemetry.sketched());
  EXPECT_EQ(a.params.telemetry.summary(), b.params.telemetry.summary());
  EXPECT_EQ(a.params.telemetry.seed, b.params.telemetry.seed);
  EXPECT_TRUE(a.params.timeseries.enabled);
  EXPECT_EQ(a.params.timeseries.summary(), b.params.timeseries.summary());
  EXPECT_EQ(a.params.timeseries.window_nanos, b.params.timeseries.window_nanos);
  EXPECT_EQ(a.plan.total_traces(), 12);
  EXPECT_EQ(measure::plan_fingerprint(a.plan), measure::plan_fingerprint(b.plan));
  EXPECT_EQ(a.probe.udp_attempts, b.probe.udp_attempts);
  EXPECT_EQ(a.probe.udp_timeout, b.probe.udp_timeout);
  EXPECT_EQ(a.probe.http_deadline, b.probe.http_deadline);
  EXPECT_EQ(a.probe.inter_test_gap, b.probe.inter_test_gap);
  EXPECT_EQ(a.probe.sched.serialize(), b.probe.sched.serialize());
  EXPECT_EQ(a.probe.sched.retry.base_timeout.count_nanos(), 600'000'000);
  EXPECT_EQ(a.probe.sched.watchdog.deadline.count_nanos(), 20'000'000'000);
  EXPECT_EQ(scenario::journal_meta(a.params, a.plan, a.probe),
            scenario::journal_meta(b.params, b.plan, b.probe));
}

}  // namespace
}  // namespace ecnprobe::daemon
