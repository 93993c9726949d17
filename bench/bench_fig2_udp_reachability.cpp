// Figures 2a/2b and the Section 4.1 headline numbers: per-trace UDP
// reachability with not-ECT vs ECT(0) marks across the full campaign (210
// traces from 13 vantage points at scale 1).
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/measure/results.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Figure 2: UDP reachability with and without ECT(0)", config,
                      params);

  const auto plan = bench::campaign_plan(config);
  std::printf("running %d traces x %d servers x 4 probes...\n", plan.total_traces(),
              params.server_count);
  bench::Stopwatch timer;
  const auto simulated = bench::run_simulated(params, plan);
  const auto& traces = simulated.run.traces;
  std::printf("campaign done in %.1fs (%zu simulated events)\n\n", timer.seconds(),
              simulated.sim_events);

  const auto per_trace = analysis::per_trace_reachability(traces);
  std::printf("Figure 2a: %% of not-ECT-reachable servers also reachable with ECT(0)\n");
  std::printf("%s\n", analysis::render_figure2a(per_trace).c_str());
  std::printf("Figure 2b: %% of ECT(0)-reachable servers also reachable with not-ECT\n");
  std::printf("%s\n", analysis::render_figure2b(per_trace).c_str());

  std::printf("per-vantage mean of Figure 2a (location variation):\n");
  for (const auto& row : analysis::per_vantage_reachability(traces)) {
    std::printf("  %-16s %6.2f%%  (%d traces, mean %4.0f reachable)\n",
                row.vantage.c_str(), row.mean_pct_ect_given_plain, row.traces,
                row.mean_reachable_udp_plain);
  }

  const auto summary = analysis::summarize_reachability(traces);
  std::printf("\nheadline comparison:\n");
  bench::compare("mean servers reachable (not-ECT UDP)",
                 summary.mean_reachable_udp_plain, 2253 * config.scale);
  bench::compare("mean % ECT(0)-reachable given not-ECT",
                 summary.mean_pct_ect_given_plain, 98.97, "%");
  bench::compare("min  % ECT(0)-reachable given not-ECT",
                 summary.min_pct_ect_given_plain, 90.0, "%");
  bench::compare("mean % not-ECT-reachable given ECT(0)",
                 summary.mean_pct_plain_given_ect, 99.45, "%");

  if (!config.csv_path.empty()) {
    std::ofstream out(config.csv_path);
    measure::write_traces_csv(out, traces);
    std::printf("raw traces written to %s\n", config.csv_path.c_str());
  }
  return 0;
}
