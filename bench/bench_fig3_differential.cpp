// Figures 3a/3b: per-server differential reachability. Reproduces the tall
// persistent spikes (servers behind ECT-dropping firewalls), their presence
// from every vantage point, the small Figure 3b population, and the paper's
// "4x more transient than persistent" observation.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "ecnprobe/analysis/differential.hpp"
#include "ecnprobe/analysis/report.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Figure 3: per-server differential reachability", config, params);

  const auto plan = bench::campaign_plan(config);
  std::printf("running %d traces...\n", plan.total_traces());
  bench::Stopwatch timer;
  const auto traces = scenario::run_campaign(params, plan).traces;
  std::printf("campaign done in %.1fs\n\n", timer.seconds());

  const auto diffs = analysis::per_server_differential(traces);

  std::printf("Figure 3a (aggregate over vantages): servers reachable not-ECT but not "
              "ECT(0)\n");
  std::printf("%s\n", analysis::render_figure3a(diffs).c_str());
  std::printf("Figure 3b (aggregate): servers reachable ECT(0) but not not-ECT\n");
  std::printf("%s\n", analysis::render_figure3b(diffs).c_str());

  const auto& vantages = measure::paper_vantage_names();
  const auto counts = analysis::count_over_threshold(diffs, vantages, 50.0);
  std::printf("servers with differential reachability > 50%% per location:\n");
  int min_a = 1 << 30;
  int max_a = 0;
  int max_b = 0;
  for (const auto& row : counts) {
    std::printf("  %-16s fig3a: %3d   fig3b: %3d\n", row.vantage.c_str(),
                row.plain_not_ect_over_threshold, row.ect_not_plain_over_threshold);
    min_a = std::min(min_a, row.plain_not_ect_over_threshold);
    max_a = std::max(max_a, row.plain_not_ect_over_threshold);
    max_b = std::max(max_b, row.ect_not_plain_over_threshold);
  }
  std::printf("\ncomparison:\n");
  bench::compare("fig3a spikes per location (min)", min_a, 9 * config.scale);
  bench::compare("fig3a spikes per location (max)", max_a, 14 * config.scale);
  bench::compare("fig3b servers > 50% (max over locations)", max_b, 3 * config.scale);

  const auto persistent = analysis::persistent_failures(diffs, vantages, 50.0);
  std::printf("\npersistently ECT-unreachable from every vantage: %zu servers\n",
              persistent.size());
  const auto truth = scenario::World(params).ground_truth_firewalled();
  int recovered = 0;
  for (const auto& addr : persistent) {
    const bool is_truth = std::find(truth.begin(), truth.end(), addr) != truth.end();
    recovered += is_truth ? 1 : 0;
    std::printf("  %-15s %s\n", addr.to_string().c_str(),
                is_truth ? "(ground truth: ECT-UDP firewall)" : "(transient)");
  }
  std::printf("ground-truth firewalled servers rediscovered: %d of %zu\n", recovered,
              truth.size());

  // The paper: "around 4x more servers transiently unreachable" than
  // persistently. Transient = ever differential but never above 50%.
  int transient = 0;
  for (const auto& d : diffs) {
    if (d.overall_plain_not_ect_pct > 0.0 && d.overall_plain_not_ect_pct <= 50.0) {
      ++transient;
    }
  }
  std::printf("\ntransiently vs persistently ECT-unreachable servers: %d vs %zu "
              "(paper: ~4x more transient)\n",
              transient, persistent.size());
  return 0;
}
