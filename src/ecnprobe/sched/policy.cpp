#include "ecnprobe/sched/policy.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::sched {
namespace {

util::Error bad(const std::string& what) { return util::make_error("sched", what); }

bool parse_double_strict(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

bool parse_int_strict(const std::string& tok, int* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || v < -(1l << 30) || v > (1l << 30)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

util::SimDuration from_ms(double ms) {
  return util::SimDuration::nanos(static_cast<std::int64_t>(ms * 1e6));
}

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
  const auto parts = util::split(spec, ',');
  if (parts.empty() || parts[0].empty()) return bad("empty supervisor spec");
  SupervisorConfig config;
  const std::string kind{util::trim(parts[0])};
  if (kind == "paper") {
    config.retry.kind = RetryPolicy::Kind::PaperFixed;
  } else if (kind == "backoff") {
    config.retry.kind = RetryPolicy::Kind::Backoff;
  } else {
    return bad("unknown retry policy '" + kind + "' (known: paper, backoff)");
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string part{util::trim(parts[i])};
    const auto eq = part.find('=');
    if (eq == std::string::npos) return bad("expected key=value, got '" + part + "'");
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    double d = 0;
    int n = 0;
    const auto want_double = [&](double lo) {
      return parse_double_strict(value, &d) && d >= lo;
    };
    const auto want_int = [&](int lo) { return parse_int_strict(value, &n) && n >= lo; };
    if (key == "max-attempts") {
      if (!want_int(1)) return bad("bad max-attempts '" + value + "'");
      config.retry.max_attempts = n;
    } else if (key == "base-ms") {
      if (!want_double(0.0) || d <= 0.0) return bad("bad base-ms '" + value + "'");
      config.retry.base_timeout = from_ms(d);
    } else if (key == "factor") {
      if (!want_double(1.0)) return bad("bad factor '" + value + "' (must be >= 1)");
      config.retry.backoff_factor = d;
    } else if (key == "max-ms") {
      if (!want_double(0.0) || d <= 0.0) return bad("bad max-ms '" + value + "'");
      config.retry.max_timeout = from_ms(d);
    } else if (key == "jitter") {
      if (!want_double(0.0) || d >= 1.0) {
        return bad("bad jitter '" + value + "' (must be in [0, 1))");
      }
      config.retry.jitter = d;
    } else if (key == "budget-ms") {
      if (!want_double(0.0)) return bad("bad budget-ms '" + value + "'");
      config.retry.total_budget = from_ms(d);
    } else if (key == "hedge-ms") {
      if (!want_double(0.0)) return bad("bad hedge-ms '" + value + "'");
      config.retry.hedge_delay = from_ms(d);
    } else if (key == "breaker-failures") {
      if (!want_int(1)) return bad("bad breaker-failures '" + value + "'");
      config.breaker.enabled = true;
      config.breaker.failure_threshold = n;
    } else if (key == "breaker-half-open") {
      if (!want_int(1)) return bad("bad breaker-half-open '" + value + "'");
      config.breaker.enabled = true;
      config.breaker.half_open_after = n;
    } else if (key == "pace-rate") {
      if (!want_double(0.0) || d <= 0.0) return bad("bad pace-rate '" + value + "'");
      config.pacer.enabled = true;
      config.pacer.rate_per_sec = d;
    } else if (key == "pace-burst") {
      if (!want_int(1)) return bad("bad pace-burst '" + value + "'");
      config.pacer.enabled = true;
      config.pacer.burst = n;
    } else if (key == "pace-dest-gap-ms") {
      if (!want_double(0.0)) return bad("bad pace-dest-gap-ms '" + value + "'");
      config.pacer.enabled = true;
      config.pacer.per_dest_gap = from_ms(d);
    } else if (key == "watchdog-ms") {
      if (!want_double(0.0) || d <= 0.0) return bad("bad watchdog-ms '" + value + "'");
      config.watchdog.deadline = from_ms(d);
    } else if (key == "seed") {
      const auto seed = util::parse_integer<std::uint64_t>(value);
      if (!seed) return bad("bad seed '" + value + "'");
      config.seed = *seed;
    } else {
      return bad("unknown supervisor key '" + key + "'");
    }
  }
  try {
    config.validate();
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
