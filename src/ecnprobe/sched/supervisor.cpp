#include "ecnprobe/sched/supervisor.hpp"

#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::sched {

namespace {

// TraceSupervisor::counters_ slots: breaker transitions (scope x target
// state), then skips by scope, then pacer delays.
constexpr std::size_t kTransitionSlot = 0;
constexpr std::size_t kSkipSlot = 6;
constexpr std::size_t kPacerDelaySlot = 8;

std::size_t scope_index(const char* scope) { return std::string_view(scope) == "group" ? 1 : 0; }

}  // namespace

template <class Resolve>
obs::Counter& TraceSupervisor::find_or_resolve(std::vector<LabeledCounter>& cache,
                                               std::string_view label, int n,
                                               Resolve&& resolve) {
  for (auto& entry : cache) {
    if (entry.n == n && entry.label == label) return *entry.counter;
  }
  cache.push_back({std::string(label), n, resolve()});
  return *cache.back().counter;
}

std::string_view to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::Closed: return "closed";
    case CircuitBreaker::State::Open: return "open";
    case CircuitBreaker::State::HalfOpen: return "half-open";
  }
  return "?";
}

TraceSupervisor::TraceSupervisor(SupervisorConfig config, obs::Observability& obs,
                                 GroupResolver groups, std::uint64_t trace_salt)
    : config_(std::move(config)), obs_(obs), groups_(std::move(groups)) {
  config_.validate();
  schedule_seed_ =
      util::derive_seed(util::derive_seed(config_.seed, "sched-retry"), trace_salt);
  if (config_.pacer.enabled) pacer_ = std::make_unique<Pacer>(config_.pacer);
}

CircuitBreaker::Listener TraceSupervisor::transition_listener(const char* scope) {
  // Every state change lands in sched_breaker_transitions_total{scope,to}.
  // The listener only fires when breakers are enabled, so the default
  // config never creates these families.
  return [this, scope](CircuitBreaker::State from, CircuitBreaker::State to) {
    const std::size_t slot =
        kTransitionSlot + 3 * scope_index(scope) + static_cast<std::size_t>(to);
    counters_
        .get(obs_.registry, slot,
             [&] {
               return obs_.registry.counter(
                   "sched_breaker_transitions_total",
                   {{"scope", scope}, {"to", std::string(to_string(to))}},
                   "circuit breaker state transitions, by scope and target state");
             })
        .inc();
    // Live plane: breaker trips flow to the SSE stream. Observation-only
    // and gated, so unserved campaigns pay one atomic load.
    auto& stream = obs::EventStream::process();
    if (stream.enabled()) {
      stream.emit("breaker",
                  util::strf("scope=%s %s -> %s", scope,
                             std::string(to_string(from)).c_str(),
                             std::string(to_string(to)).c_str()));
    }
  };
}

CircuitBreaker& TraceSupervisor::server_breaker(wire::Ipv4Address server) {
  auto& slot = server_breakers_[server.value()];
  if (!slot) {
    slot = std::make_unique<CircuitBreaker>(config_.breaker,
                                            transition_listener("server"));
  }
  return *slot;
}

CircuitBreaker& TraceSupervisor::group_breaker(const std::string& group) {
  auto& slot = group_breakers_[group];
  if (!slot) {
    slot = std::make_unique<CircuitBreaker>(config_.breaker,
                                            transition_listener("group"));
  }
  return *slot;
}

bool TraceSupervisor::allow_server(wire::Ipv4Address server) {
  if (!config_.breaker.enabled || !groups_) return true;
  return group_breaker(groups_(server)).allow();
}

bool TraceSupervisor::allow_step(wire::Ipv4Address server) {
  if (!config_.breaker.enabled) return true;
  return server_breaker(server).allow();
}

void TraceSupervisor::on_step_result(wire::Ipv4Address server, bool success) {
  if (!config_.breaker.enabled) return;
  auto& breaker = server_breaker(server);
  if (success) {
    breaker.on_success();
  } else {
    breaker.on_failure();
  }
}

void TraceSupervisor::on_server_result(wire::Ipv4Address server, bool any_success) {
  if (!config_.breaker.enabled || !groups_) return;
  auto& breaker = group_breaker(groups_(server));
  if (any_success) {
    breaker.on_success();
  } else {
    breaker.on_failure();
  }
}

void TraceSupervisor::record_skip(wire::Ipv4Address server, const char* scope) {
  obs_.ledger.record_drop(obs::Layer::Measure, obs::DropCause::CircuitOpen, server);
  counters_
      .get(obs_.registry, kSkipSlot + scope_index(scope),
           [&] {
             return obs_.registry.counter(
                 "sched_breaker_skips_total", {{"scope", scope}},
                 "probe steps skipped because a circuit breaker was open");
           })
      .inc();
}

std::vector<util::SimDuration> TraceSupervisor::retry_schedule(
    wire::Ipv4Address server, int step) {
  // A private stream per (seed, trace, server, step): any executor running
  // this trace derives the identical schedule, in any order.
  util::Rng rng(util::derive_seed(util::derive_seed(schedule_seed_, server.value()),
                                  static_cast<std::uint64_t>(step)));
  return build_retry_schedule(config_.retry, rng);
}

void TraceSupervisor::count_attempts(const char* test, int attempts) {
  find_or_resolve(attempt_counters_, test, attempts, [&] {
    return obs_.registry.counter("sched_retry_attempts_total",
                                 {{"test", test}, {"attempts", std::to_string(attempts)}},
                                 "UDP probe steps finished, by test and total attempts used");
  }).inc();
}

util::SimTime TraceSupervisor::pace(util::SimTime now, wire::Ipv4Address server) {
  if (!pacer_) return now;
  const auto launch = pacer_->acquire(now, server);
  if (pacer_->last_delayed()) {
    auto& registry = obs_.registry;
    counters_
        .get(registry, kPacerDelaySlot,
             [&] {
               return registry.counter("sched_pacer_delays_total", {},
                                       "probe steps the pacer had to delay");
             })
        .inc();
    pacer_histograms_
        .get(registry, 0,
             [&] {
               return registry.histogram("sched_pacer_wait_ms",
                                         {1.0, 5.0, 25.0, 100.0, 500.0, 2500.0}, {},
                                         "sim-time the pacer held a probe step back, ms");
             })
        .observe((launch - now).to_millis());
    // The sequential trace runner launches one step at a time, so the
    // queue behind the pacer is the step being held: depth 1 per delay.
    pacer_histograms_
        .get(registry, 1,
             [&] {
               return registry.histogram(
                   "sched_pacer_queue_depth", {1.0, 2.0, 4.0, 8.0}, {},
                   "probe steps queued behind the pacer when it delayed one");
             })
        .observe(1.0);
  }
  return launch;
}

void TraceSupervisor::count_watchdog_cancel(const std::string& vantage) {
  find_or_resolve(watchdog_counters_, vantage, 0, [&] {
    return obs_.registry.counter("sched_watchdog_cancellations_total", {{"vantage", vantage}},
                                 "server probes cancelled by the watchdog deadline");
  }).inc();
}

}  // namespace ecnprobe::sched
