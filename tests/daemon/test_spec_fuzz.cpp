// Spec-reader robustness fuzzing. ecnprobed admits campaign specs from
// the network, so util::parse_json and TenantSpec::from_json see
// untrusted bytes: every-offset truncations and random bit flips of a
// valid spec, random byte strings, and nesting past the reader's 32-level
// limit. The contract under test: each input yields either an error with
// a message or a spec that validates -- its canonical rendering re-admits
// to an equal spec, and the telemetry aggregate, time-series histogram,
// pacer and retry schedule it configures build -- and nothing crashes (the
// ASan job runs this too).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ecnprobe/daemon/spec.hpp"
#include "ecnprobe/obs/loghist.hpp"
#include "ecnprobe/obs/telemetry.hpp"
#include "ecnprobe/sched/pacer.hpp"
#include "ecnprobe/sched/policy.hpp"
#include "ecnprobe/util/json.hpp"

namespace ecnprobe::daemon {
namespace {

/// Deterministic 64-bit LCG: the corpus is the same on every run.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  }
  std::size_t below(std::size_t bound) { return static_cast<std::size_t>(next() % bound); }
};

/// A spec exercising every key, every sub-spec parser included.
std::string valid_spec() {
  TenantSpec spec;
  spec.tenant = "fuzz-tenant.1";
  spec.scale = 0.05;
  spec.seed = 1234;
  spec.traces = 12;
  spec.workers = 2;
  spec.faults = "wan-chaos";
  spec.telemetry = "sketched,sample-every=4";
  spec.timeseries = "250";
  spec.sched = "backoff,pace-rate=50,breaker-failures=3";
  return spec.to_json();
}

/// Enforces the contract for one input; returns true when it admitted.
bool admit_or_refuse(const std::string& text) {
  const auto doc = util::parse_json(text);
  if (!doc) {
    EXPECT_FALSE(doc.error().message.empty());
  }
  const auto spec = TenantSpec::from_json(text);
  if (!spec) {
    EXPECT_FALSE(spec.error().message.empty()) << "refusal without a reason";
    return false;
  }
  EXPECT_TRUE(doc) << "spec admitted from text the JSON reader refuses";
  const auto again = TenantSpec::from_json(spec->to_json());
  EXPECT_TRUE(again) << "admitted spec does not re-validate: " << spec->to_json();
  if (again) {
    EXPECT_EQ(*again, *spec);
  }
  // Admission implies runnable: what the options configure constructs.
  const auto resolved = spec->resolve();
  const auto& params = resolved.params;
  if (params.telemetry.sketched()) {
    EXPECT_NO_THROW(obs::TelemetryAggregate(params.telemetry.resolved(params.seed)))
        << spec->to_json();
  }
  if (params.timeseries.enabled) {
    EXPECT_NO_THROW(obs::LogHistogram(params.timeseries.alpha)) << spec->to_json();
  }
  EXPECT_NO_THROW(sched::Pacer(resolved.probe.sched.pacer)) << spec->to_json();
  util::Rng rng(params.seed);
  EXPECT_FALSE(sched::build_retry_schedule(resolved.probe.sched.retry, rng).empty());
  return true;
}

TEST(SpecFuzz, ValidSpecAdmitsAndEveryTruncationIsRefused) {
  const std::string pristine = valid_spec();
  ASSERT_TRUE(admit_or_refuse(pristine));
  // The document is one object: no proper prefix closes it.
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    EXPECT_FALSE(admit_or_refuse(pristine.substr(0, cut))) << "cut at " << cut;
  }
}

TEST(SpecFuzz, RandomBitFlipsRefuseOrStillValidate) {
  const std::string pristine = valid_spec();
  Lcg rng{0x5bec5bec};
  int admitted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = pristine;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.below(8)));
    }
    if (admit_or_refuse(mutated)) ++admitted;
  }
  // Flips inside digits and option values can leave a different but
  // valid spec, which must then re-validate; most flips break the syntax,
  // a key, or a sub-spec.
  EXPECT_GT(admitted, 0) << "no mutant reached the re-validation check";
  EXPECT_LT(admitted, 4000);
}

TEST(SpecFuzz, EveryOptionKeyAdmitsOnlyRunnableValues) {
  // Each key of the four option languages, behind the head it needs.
  const std::vector<std::pair<std::string, std::vector<std::string>>> keys = {
      {"faults",
       {"none,chaos-links=", "none,corrupt-prob=", "none,duplicate-prob=",
        "none,reorder-prob=", "none,reorder-window-ms=", "none,icmp-blackhole-routers=",
        "none,icmp-blackhole-prob=", "none,quote-truncate-links=",
        "none,quote-truncate-prob=", "none,route-flap-links=", "none,route-flap-down-ms=",
        "none,route-flap-period-ms=", "none,flaky-server-fraction=",
        "none,short-reply-prob=", "none,malformed-reply-prob=",
        "none,blackhole-server-fraction=", "none,poison=", "none,crash-after="}},
      {"telemetry",
       {"sketched,eps=", "sketched,epsilon=", "sketched,delta=", "sketched,alpha=",
        "sketched,sample-every=", "sketched,reservoir=", "sketched,budget-kb=",
        "sketched,seed="}},
      {"timeseries", {"", "window-ms=", "alpha=", "max-windows="}},
      {"sched",
       {"backoff,max-attempts=", "backoff,base-ms=", "backoff,factor=",
        "backoff,max-ms=", "backoff,jitter=", "backoff,budget-ms=", "backoff,hedge-ms=",
        "paper,breaker-failures=", "paper,breaker-half-open=", "paper,pace-rate=",
        "paper,pace-rate=1e-6,pace-burst=", "paper,pace-rate=1e9,pace-dest-gap-ms=",
        "paper,watchdog-ms=", "paper,seed="}},
  };
  const std::vector<std::string> values = {
      "0",    "1",    "0.5",  "2",    "1e-9", "1000",       "1001",       "nan",
      "inf",  "-inf", "-1",   "+1",   "0x10", "1e300",      "",           "1e9",
      "1000000000",   "1000000001",   "1048576",    "18446744073709551615",
      "18446744073709551616"};
  int admitted = 0;
  for (const auto& [key, prefixes] : keys) {
    for (const auto& prefix : prefixes) {
      for (const auto& value : values) {
        if (admit_or_refuse("{\"" + key + "\":" + util::json_quote(prefix + value) + "}")) {
          ++admitted;
        }
      }
    }
  }
  EXPECT_GT(admitted, 0);
}

TEST(SpecFuzz, RandomBytesNeverCrashTheReader) {
  Lcg rng{0xfeedbeef};
  const std::string alphabet = "{}[]\":,.-+0123456789eEtrufalsn \t\r\n\\/abc";
  for (int round = 0; round < 3000; ++round) {
    std::string input(rng.below(96), '\0');
    // Half the corpus is raw bytes, half JSON-ish punctuation that gets
    // past the first character more often.
    const bool raw = round % 2 == 0;
    for (auto& c : input) {
      c = raw ? static_cast<char>(rng.below(256)) : alphabet[rng.below(alphabet.size())];
    }
    admit_or_refuse(input);
  }
}

TEST(SpecFuzz, NestingPastTheLimitIsRefused) {
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  // 33 levels is the deepest value the reader accepts ...
  EXPECT_TRUE(util::parse_json(nested(33)));
  EXPECT_FALSE(admit_or_refuse(nested(33)));  // a valid document, not a spec
  // ... one more is refused by depth, not by running out of stack.
  for (const std::size_t levels : {34u, 35u, 1000u, 1000000u}) {
    const auto doc = util::parse_json(nested(levels));
    ASSERT_FALSE(doc) << levels << " levels";
    EXPECT_NE(doc.error().message.find("nesting too deep"), std::string::npos)
        << doc.error().message;
    EXPECT_FALSE(admit_or_refuse(nested(levels)));
  }
  // The same through a spec key and through objects.
  const std::string deep_key = "{\"scale\":" + nested(40) + "}";
  EXPECT_FALSE(admit_or_refuse(deep_key));
  std::string objects;
  for (int i = 0; i < 40; ++i) objects += "{\"k\":";
  objects += "1" + std::string(40, '}');
  const auto doc = util::parse_json(objects);
  ASSERT_FALSE(doc);
  EXPECT_NE(doc.error().message.find("nesting too deep"), std::string::npos);
  EXPECT_FALSE(admit_or_refuse(objects));
}

}  // namespace
}  // namespace ecnprobe::daemon
