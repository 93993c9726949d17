// The per-trace probe-lifecycle supervisor: owns the trace's circuit
// breakers (per server and per AS group), the token-bucket pacer, and the
// jitter streams behind adaptive retry schedules, and records every
// decision it takes into the owning world's observability (sched_*
// metrics, circuit-open drop attributions).
//
// Determinism contract: the supervisor is TRACE-SCOPED. TraceRunner builds
// a fresh one per trace, seeded by (config.seed, trace index), so its state
// never spans traces -- a worker that picks up trace 17 cold reproduces
// exactly the breaker/pacer state a worker that ran traces 0-16 first
// would have there, because that state is a pure function of the trace's
// own probe outcomes. Every retry schedule is a pure function of
// (seed, trace, server, step); the pacer is pure integer arithmetic on the
// sim clock; the breakers are pure functions of the outcome sequence.
// Nothing here draws from any Host RNG stream.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/sched/circuit_breaker.hpp"
#include "ecnprobe/sched/pacer.hpp"
#include "ecnprobe/sched/policy.hpp"
#include "ecnprobe/wire/ipv4.hpp"

namespace ecnprobe::sched {

/// Maps a destination to its breaker group (the scenario layer binds this
/// to ip2as lookup: "AS<n>"). Null resolver = no group breakers.
using GroupResolver = std::function<std::string(wire::Ipv4Address)>;

class TraceSupervisor {
public:
  /// `trace_salt` is the campaign trace index (or 0 outside a campaign):
  /// it salts the jitter streams so distinct traces get distinct
  /// schedules while any executor reproduces any trace independently.
  TraceSupervisor(SupervisorConfig config, obs::Observability& obs,
                  GroupResolver groups, std::uint64_t trace_salt = 0);

  const SupervisorConfig& config() const { return config_; }
  bool adaptive_retry() const {
    return config_.retry.kind == RetryPolicy::Kind::Backoff;
  }

  // -- circuit breakers -------------------------------------------------------

  /// Gate for a whole server (consulted once, before its four-step probe):
  /// the server's AS-group breaker. False = skip the server entirely.
  bool allow_server(wire::Ipv4Address server);
  /// Gate for one probe step: the per-server breaker. False = skip the
  /// step (recorded as failed without sending anything).
  bool allow_step(wire::Ipv4Address server);
  /// Reports one probe step's outcome to the per-server breaker.
  void on_step_result(wire::Ipv4Address server, bool success);
  /// Reports a completed (or watchdog-cancelled) server probe to its
  /// group breaker. `any_success` = at least one of the four steps worked.
  void on_server_result(wire::Ipv4Address server, bool any_success);
  /// Attributes one skipped probe step in the drop ledger (circuit-open)
  /// and counts it. `scope` is "server" or "group".
  void record_skip(wire::Ipv4Address server, const char* scope);

  // -- adaptive retry ---------------------------------------------------------

  /// The per-attempt timeout schedule for (server, step) under the
  /// configured backoff policy. Deterministic: derived from
  /// (config.seed, trace_salt, server, step) alone.
  std::vector<util::SimDuration> retry_schedule(wire::Ipv4Address server, int step);
  /// Counts a finished UDP step's attempt total (retries-by-attempt
  /// metric). Only called under adaptive retry.
  void count_attempts(const char* test, int attempts);

  // -- pacing -----------------------------------------------------------------

  /// Earliest launch time >= now for the next probe step; records pacer
  /// wait metrics when the step had to be delayed.
  util::SimTime pace(util::SimTime now, wire::Ipv4Address server);

  // -- watchdog ---------------------------------------------------------------

  void count_watchdog_cancel(const std::string& vantage);

private:
  CircuitBreaker& server_breaker(wire::Ipv4Address server);
  CircuitBreaker& group_breaker(const std::string& group);
  CircuitBreaker::Listener transition_listener(const char* scope);

  SupervisorConfig config_;
  obs::Observability& obs_;
  GroupResolver groups_;
  std::uint64_t schedule_seed_ = 0;
  std::unique_ptr<Pacer> pacer_;
  std::map<std::uint32_t, std::unique_ptr<CircuitBreaker>> server_breakers_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> group_breakers_;

  // Instrument handles, each resolved on first use: breaker transitions by
  // scope and target state, skips by scope, pacer delays and the pacer's
  // two histograms.
  obs::Handles<obs::Counter, 9> counters_;
  obs::Handles<obs::Histogram, 2> pacer_histograms_;
  /// A counter whose label values the supervisor cannot enumerate (retry
  /// attempts by test and total, watchdog cancellations by vantage), kept
  /// for a short linear search.
  struct LabeledCounter {
    std::string label;
    int n = 0;
    obs::Counter* counter = nullptr;
  };
  std::vector<LabeledCounter> attempt_counters_;
  std::vector<LabeledCounter> watchdog_counters_;
  template <class Resolve>
  static obs::Counter& find_or_resolve(std::vector<LabeledCounter>& cache,
                                       std::string_view label, int n, Resolve&& resolve);
};

}  // namespace ecnprobe::sched
