// Robustness: the reproduction's headline statistics across independent
// random worlds. The paper measured one Internet once; this bench shows
// which of its numbers are stable properties of the mechanism mix (the
// reachability percentages) and which are high-variance draws (the
// AS-boundary attribution).
#include <cstdio>

#include "bench_common.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  auto config = bench::parse_args(argc, argv);
  if (config.scale > 0.3) config.scale = 0.3;  // 750 servers per world
  bench::print_header("Robustness: headline statistics across seeds", config,
                      bench::world_params(config));

  util::RunningStats fig2a;
  util::RunningStats fig2b;
  util::RunningStats tcp_ecn_pct;
  util::RunningStats pass_pct;
  util::RunningStats boundary_pct;

  const std::uint64_t seeds[] = {config.seed, config.seed + 1, config.seed + 2,
                                 config.seed + 3, config.seed + 4};
  bench::Stopwatch timer;
  std::printf("  %-8s %-10s %-10s %-10s %-12s %-12s\n", "seed", "fig2a %", "fig2b %",
              "TCP ECN %", "hops pass %", "boundary %");
  for (const auto seed : seeds) {
    auto params = bench::world_params(config);
    params.seed = seed;
    // A light campaign: 2 traces per vantage.
    const auto traces =
        scenario::run_campaign(params, measure::CampaignPlan::paper_layout(1, 1, 2)).traces;
    const auto summary = analysis::summarize_reachability(traces);
    scenario::World world(params);
    const auto observations = world.run_traceroutes(2);
    const auto hops = analysis::analyze_hops(observations, world.ip2as());

    fig2a.add(summary.mean_pct_ect_given_plain);
    fig2b.add(summary.mean_pct_plain_given_ect);
    tcp_ecn_pct.add(summary.pct_tcp_negotiating_ecn);
    pass_pct.add(hops.pct_hops_passing());
    boundary_pct.add(hops.pct_strips_at_boundary());
    std::printf("  %-8llu %-10.2f %-10.2f %-10.1f %-12.2f %-12.1f\n",
                static_cast<unsigned long long>(seed),
                summary.mean_pct_ect_given_plain, summary.mean_pct_plain_given_ect,
                summary.pct_tcp_negotiating_ecn, hops.pct_hops_passing(),
                hops.pct_strips_at_boundary());
  }
  std::printf("\n  %-8s %-10.2f %-10.2f %-10.1f %-12.2f %-12.1f\n", "mean",
              fig2a.mean(), fig2b.mean(), tcp_ecn_pct.mean(), pass_pct.mean(),
              boundary_pct.mean());
  std::printf("  %-8s %-10.2f %-10.2f %-10.1f %-12.2f %-12.1f\n", "stddev",
              fig2a.stddev(), fig2b.stddev(), tcp_ecn_pct.stddev(), pass_pct.stddev(),
              boundary_pct.stddev());
  std::printf("\n5 worlds in %.1fs. The reachability and negotiation percentages are\n"
              "tight across worlds (the mechanisms dominate); the boundary share is\n"
              "not (few strip locations -> high draw variance), which calibrates how\n"
              "much to read into the paper's single 59.1%% observation.\n",
              timer.seconds());
  return 0;
}
