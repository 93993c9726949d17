#include "ecnprobe/sched/policy.hpp"

#include <algorithm>
#include <stdexcept>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::sched {
namespace {

util::Error bad(const std::string& what) { return util::make_error("sched", what); }

using util::store;
using Config = SupervisorConfig;

constexpr auto kMs = util::number_in(0.0, util::kMaxOptionMs);
constexpr auto kPositiveMs = util::number_in(0.0, util::kMaxOptionMs, /*lo_open=*/true);
constexpr auto kThreshold = util::integer_in(1, 1 << 20);

// A breaker-* or pace-* key also turns its subsystem on (see parse()).
constexpr util::OptionKey<Config> kKeys[] = {
    {"max-attempts", util::integer_in(1, 100),
     store<&Config::retry, &RetryPolicy::max_attempts>},
    {"base-ms", kPositiveMs, store<&Config::retry, &RetryPolicy::base_timeout>},
    {"factor", util::number_in(1.0, 1000.0),
     store<&Config::retry, &RetryPolicy::backoff_factor>},
    {"max-ms", kPositiveMs, store<&Config::retry, &RetryPolicy::max_timeout>},
    {"jitter", util::number_in(0.0, 1.0, /*lo_open=*/false, /*hi_open=*/true),
     store<&Config::retry, &RetryPolicy::jitter>},
    {"budget-ms", kMs, store<&Config::retry, &RetryPolicy::total_budget>},
    {"hedge-ms", kMs, store<&Config::retry, &RetryPolicy::hedge_delay>},
    {"breaker-failures", kThreshold,
     store<&Config::breaker, &BreakerPolicy::failure_threshold>},
    {"breaker-half-open", kThreshold,
     store<&Config::breaker, &BreakerPolicy::half_open_after>},
    // From one step per 11.6 sim-days to one per nanosecond.
    {"pace-rate", util::number_in(1e-6, 1e9),
     store<&Config::pacer, &PacerPolicy::rate_per_sec>},
    // The bucket holds burst x interval nanoseconds: at most 1e3 x 1e15.
    {"pace-burst", util::integer_in(1, 1000), store<&Config::pacer, &PacerPolicy::burst>},
    {"pace-dest-gap-ms", kMs, store<&Config::pacer, &PacerPolicy::per_dest_gap>},
    {"watchdog-ms", kPositiveMs, store<&Config::watchdog, &WatchdogPolicy::deadline>},
    {"seed", util::integer_in(0, UINT64_MAX), store<&Config::seed>},
};

}  // namespace

std::vector<util::SimDuration> build_retry_schedule(const RetryPolicy& policy,
                                                    util::Rng& rng) {
  std::vector<util::SimDuration> schedule;
  if (policy.kind == RetryPolicy::Kind::PaperFixed) {
    // No draws: the fixed schedule must not move any RNG stream.
    schedule.assign(static_cast<std::size_t>(std::max(1, policy.max_attempts)),
                    policy.base_timeout);
    return schedule;
  }
  const std::int64_t budget_ns = policy.total_budget.count_nanos();
  std::int64_t spent_ns = 0;
  double nominal_ns = static_cast<double>(policy.base_timeout.count_nanos());
  const double max_ns = static_cast<double>(policy.max_timeout.count_nanos());
  std::int64_t floor_ns = 0;  // monotonicity clamp: previous entry
  for (int i = 0; i < policy.max_attempts; ++i) {
    double t = std::min(nominal_ns, max_ns);
    if (policy.jitter > 0.0) {
      // Seed-deterministic scale uniform in [1 - j, 1 + j).
      t *= 1.0 + policy.jitter * (2.0 * rng.next_double() - 1.0);
    }
    std::int64_t t_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(t));
    t_ns = std::max(t_ns, floor_ns);  // never shrink: monotone non-decreasing
    if (budget_ns > 0 && !schedule.empty() && spent_ns + t_ns > budget_ns) {
      break;  // an attempt that does not fully fit the budget is dropped
    }
    schedule.push_back(util::SimDuration::nanos(t_ns));
    spent_ns += t_ns;
    floor_ns = t_ns;
    nominal_ns = std::min(nominal_ns * policy.backoff_factor, max_ns);
  }
  return schedule;
}

bool SupervisorConfig::is_paper_default() const {
  return retry.kind == RetryPolicy::Kind::PaperFixed &&
         retry.hedge_delay.count_nanos() == 0 && !breaker.enabled && !pacer.enabled &&
         watchdog.deadline.count_nanos() == 0;
}

void SupervisorConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("sched::SupervisorConfig: " + what);
  };
  if (retry.max_attempts <= 0) fail("retry max-attempts must be >= 1");
  if (retry.base_timeout.count_nanos() <= 0) fail("retry base timeout must be > 0");
  if (retry.backoff_factor < 1.0) fail("retry backoff factor must be >= 1");
  if (retry.max_timeout < retry.base_timeout) {
    fail("retry max timeout must be >= base timeout");
  }
  if (retry.jitter < 0.0 || retry.jitter >= 1.0) fail("retry jitter must be in [0, 1)");
  if (retry.total_budget.count_nanos() < 0) fail("retry budget must be >= 0");
  if (retry.total_budget.count_nanos() > 0 && retry.total_budget < retry.base_timeout) {
    fail("retry budget smaller than one base timeout leaves no attempt");
  }
  if (retry.hedge_delay.count_nanos() < 0) fail("hedge delay must be >= 0");
  if (retry.hedge_delay.count_nanos() > 0 &&
      retry.kind == RetryPolicy::Kind::PaperFixed) {
    fail("hedging requires the backoff retry policy");
  }
  if (breaker.enabled) {
    if (breaker.failure_threshold <= 0) fail("breaker failure threshold must be >= 1");
    if (breaker.half_open_after <= 0) fail("breaker half-open skip count must be >= 1");
  }
  if (pacer.enabled) {
    if (pacer.rate_per_sec <= 0.0) fail("pacer rate must be > 0");
    if (pacer.burst <= 0) fail("pacer burst must be >= 1");
    if (pacer.per_dest_gap.count_nanos() < 0) fail("pacer per-dest gap must be >= 0");
  }
  if (watchdog.deadline.count_nanos() < 0) fail("watchdog deadline must be >= 0");
}

util::Expected<SupervisorConfig> SupervisorConfig::parse(const std::string& spec) {
  const auto list = util::split_options(spec, {"paper", "backoff"});
  if (!list) return bad(list.error().message);
  SupervisorConfig base;
  if (list->head == "backoff") base.retry.kind = RetryPolicy::Kind::Backoff;
  auto config = util::read_options(base, list->options, kKeys);
  if (!config) return bad(config.error().message);
  for (const auto& option : list->options) {
    if (option.key.starts_with("breaker-")) config->breaker.enabled = true;
    if (option.key.starts_with("pace-")) config->pacer.enabled = true;
  }
  try {
    config->validate();
  } catch (const std::invalid_argument& e) {
    return bad(e.what());
  }
  return config;
}

std::string SupervisorConfig::serialize() const {
  // Every emitted key parses back: disabled subsystems are expressed by
  // omission (parse() re-enables them from their threshold keys), so a
  // valid config round-trips to an equal config and an equal string.
  std::string out =
      retry.kind == RetryPolicy::Kind::PaperFixed ? "paper" : "backoff";
  out += util::strf(",max-attempts=%d", retry.max_attempts);
  out += util::strf(",base-ms=%.17g", retry.base_timeout.to_millis());
  out += util::strf(",factor=%.17g", retry.backoff_factor);
  out += util::strf(",max-ms=%.17g", retry.max_timeout.to_millis());
  out += util::strf(",jitter=%.17g", retry.jitter);
  out += util::strf(",budget-ms=%.17g", retry.total_budget.to_millis());
  out += util::strf(",hedge-ms=%.17g", retry.hedge_delay.to_millis());
  if (breaker.enabled) {
    out += util::strf(",breaker-failures=%d", breaker.failure_threshold);
    out += util::strf(",breaker-half-open=%d", breaker.half_open_after);
  }
  if (pacer.enabled) {
    out += util::strf(",pace-rate=%.17g", pacer.rate_per_sec);
    out += util::strf(",pace-burst=%d", pacer.burst);
    out += util::strf(",pace-dest-gap-ms=%.17g", pacer.per_dest_gap.to_millis());
  }
  if (watchdog.deadline.count_nanos() > 0) {
    out += util::strf(",watchdog-ms=%.17g", watchdog.deadline.to_millis());
  }
  out += util::strf(",seed=%llu", static_cast<unsigned long long>(seed));
  return out;
}

}  // namespace ecnprobe::sched
