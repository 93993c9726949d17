// Ablation: how many of the paper's "five requests with one-second
// timeouts" are actually needed? Sweeps the retry budget and reports the
// false-unreachable rate (servers reported down that are actually up) and
// the resulting Figure-2a percentage. Shows why single-shot probing would
// overstate ECN harm.
#include <cstdio>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  auto config = bench::parse_args(argc, argv);
  if (config.scale > 0.4) config.scale = 0.4;  // 1000 servers suffice
  auto params = bench::world_params(config);
  params.offline_prob = 0.0;  // isolate transient loss from true downtime
  bench::print_header("Ablation: UDP probe retry budget", config, params);

  std::printf("  %-8s %-22s %-22s %-14s\n", "retries", "false-unreachable (plain)",
              "false-unreachable (ECT)", "fig2a %");
  // Ground truth: which servers sit behind an ECT-UDP firewall.
  const scenario::World world(params);
  for (int attempts = 1; attempts <= 5; ++attempts) {
    measure::ProbeOptions options;
    options.udp_attempts = attempts;
    measure::CampaignPlan plan;
    plan.entries.push_back({"UGla wired", 1, 1});
    plan.entries.push_back({"McQuistin home", 1, 1});
    const auto traces = scenario::run_campaign(params, plan, options).traces;

    // Every server is online (offline_prob = 0), so any unreachable report
    // that is not explained by an ECT-UDP firewall is false.
    int false_plain = 0;
    int false_ect = 0;
    int total = 0;
    for (const auto& trace : traces) {
      for (std::size_t i = 0; i < trace.servers.size(); ++i) {
        const auto& s = trace.servers[i];
        const bool firewalled = world.servers()[i].firewalled_ect_udp;
        const bool ect_required = world.servers()[i].ect_required;
        ++total;
        if (!s.udp_plain.reachable && !ect_required) ++false_plain;
        if (!s.udp_ect0.reachable && !firewalled) ++false_ect;
      }
    }
    const auto summary = analysis::summarize_reachability(traces);
    std::printf("  %-8d %10d (%5.2f%%)      %10d (%5.2f%%)      %8.2f\n", attempts,
                false_plain, 100.0 * false_plain / total, false_ect,
                100.0 * false_ect / total, summary.mean_pct_ect_given_plain);
  }
  std::printf("\nThe paper's choice of five attempts pushes the false-unreachable\n"
              "rate low enough that persistent ECN failures dominate the residual.\n");
  return 0;
}
