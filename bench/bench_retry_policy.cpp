// Supervisor cost and payoff. Two questions, answered on the scaled paper
// campaign:
//
//   1. Overhead: what does routing every probe step through the
//      TraceSupervisor cost versus the inline retry loop? Measured by
//      running a clean campaign under the paper-fixed default (inline
//      path) and under a "neutral" backoff config whose schedule is
//      arithmetically identical (factor 1, no jitter) -- same probes, same
//      bytes, supervisor machinery engaged.
//   2. Payoff: on a blackhole-heavy plan, how much does a circuit-breakered
//      campaign save by routing around dead servers? Reported in wall
//      seconds, simulator events, and simulated time, with the skip count
//      cross-checked against the drop ledger's circuit-open attributions.
//
//   bench_retry_policy [--scale=F] [--seed=N]
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecnprobe/chaos/fault_plan.hpp"
#include "ecnprobe/measure/results.hpp"

namespace {

std::string traces_csv(const std::vector<ecnprobe::measure::Trace>& traces) {
  std::ostringstream os;
  ecnprobe::measure::write_traces_csv(os, traces);
  return os.str();
}

struct RunResult {
  double seconds = 0.0;
  std::size_t sim_events = 0;
  double sim_seconds = 0.0;
  std::uint64_t circuit_open = 0;
  std::string csv;
};

RunResult run(const ecnprobe::scenario::WorldParams& params,
              const ecnprobe::measure::CampaignPlan& plan,
              const ecnprobe::measure::ProbeOptions& probe) {
  using namespace ecnprobe;
  bench::Stopwatch timer;
  const auto simulated = bench::run_simulated(params, plan, probe);
  RunResult result;
  result.seconds = timer.seconds();
  result.sim_events = simulated.sim_events;
  result.sim_seconds = simulated.sim_seconds;
  result.circuit_open = simulated.run.metrics.ledger.drops_for_cause("circuit-open");
  result.csv = traces_csv(simulated.run.traces);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Retry policy: supervisor overhead and breaker payoff", config,
                      params);
  const auto plan = bench::campaign_plan(config);
  std::printf("plan: %d traces, %d servers\n\n", plan.total_traces(),
              params.server_count);

  // -- overhead: inline loop vs supervisor with an identical schedule ------
  const auto inline_run = run(params, plan, {});

  measure::ProbeOptions neutral;
  neutral.sched.retry.kind = sched::RetryPolicy::Kind::Backoff;
  neutral.sched.retry.backoff_factor = 1.0;  // 5 x 1s: the paper schedule
  neutral.sched.retry.jitter = 0.0;
  const auto supervised = run(params, plan, neutral);

  std::printf("clean campaign:\n");
  std::printf("  %-34s %8.2fs  %12zu events\n", "inline retry loop (paper default)",
              inline_run.seconds, inline_run.sim_events);
  std::printf("  %-34s %8.2fs  %12zu events  (overhead %+.1f%%)\n",
              "supervisor, neutral backoff", supervised.seconds, supervised.sim_events,
              inline_run.seconds > 0.0
                  ? 100.0 * (supervised.seconds - inline_run.seconds) / inline_run.seconds
                  : 0.0);
  const bool same_bytes = supervised.csv == inline_run.csv;
  std::printf("  results byte-identical: %s\n\n", same_bytes ? "yes" : "NO");

  // -- payoff: blackhole-heavy with and without breakers -------------------
  auto dark = params;
  const auto faults = chaos::FaultPlan::parse("blackhole-heavy");
  if (!faults) {
    std::fprintf(stderr, "cannot parse blackhole-heavy: %s\n",
                 faults.error().message.c_str());
    return 1;
  }
  dark.faults = *faults;
  const auto undefended = run(dark, plan, {});

  measure::ProbeOptions defended;
  defended.sched.breaker.enabled = true;
  defended.sched.breaker.failure_threshold = 2;
  defended.sched.breaker.half_open_after = 4;
  defended.sched.watchdog.deadline = util::SimDuration::seconds(30);
  const auto breakered = run(dark, plan, defended);

  std::printf("blackhole-heavy campaign (%.0f%% of the pool dead):\n",
              dark.faults.blackhole_server_fraction * 100.0);
  std::printf("  %-34s %8.2fs  %12zu events  %10.1f sim-s\n", "no supervision",
              undefended.seconds, undefended.sim_events, undefended.sim_seconds);
  std::printf("  %-34s %8.2fs  %12zu events  %10.1f sim-s\n", "breakers + watchdog",
              breakered.seconds, breakered.sim_events, breakered.sim_seconds);
  std::printf("  sim-event reduction: %.1f%%   sim-time reduction: %.1f%%\n",
              undefended.sim_events > 0
                  ? 100.0 * (1.0 - static_cast<double>(breakered.sim_events) /
                                       static_cast<double>(undefended.sim_events))
                  : 0.0,
              undefended.sim_seconds > 0.0
                  ? 100.0 * (1.0 - breakered.sim_seconds / undefended.sim_seconds)
                  : 0.0);
  std::printf("  skipped probes attributed circuit-open: %llu\n",
              static_cast<unsigned long long>(breakered.circuit_open));

  bool ok = true;
  if (!same_bytes) {
    std::printf("\nFAIL: neutral supervisor changed the campaign bytes\n");
    ok = false;
  }
  if (breakered.sim_events >= undefended.sim_events) {
    std::printf("\nFAIL: breakers did not reduce simulator work\n");
    ok = false;
  }
  if (breakered.circuit_open == 0) {
    std::printf("\nFAIL: breakers fired no circuit-open attributions\n");
    ok = false;
  }
  if (ok) std::printf("\nsupervisor overhead bounded, breaker payoff confirmed\n");
  return ok ? 0 : 1;
}
