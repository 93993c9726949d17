// Figure 5 / Section 4.3: web-server reachability over TCP and willingness
// to negotiate ECN (ECN-setup SYN -> ECN-setup SYN-ACK), per trace.
#include <cstdio>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/analysis/report.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Figure 5: TCP reachability and ECN negotiation", config, params);

  const auto plan = bench::campaign_plan(config);
  std::printf("running %d traces...\n", plan.total_traces());
  bench::Stopwatch timer;
  const auto traces = scenario::run_campaign(params, plan).traces;
  std::printf("campaign done in %.1fs\n\n", timer.seconds());

  const auto per_trace = analysis::per_trace_reachability(traces);
  std::printf("%s\n",
              analysis::render_figure5(per_trace, params.server_count).c_str());

  const auto summary = analysis::summarize_reachability(traces);
  std::printf("comparison:\n");
  bench::compare("mean web servers responding via TCP", summary.mean_reachable_tcp,
                 1334 * config.scale);
  bench::compare("mean servers negotiating ECN", summary.mean_negotiated_ecn_tcp,
                 1095 * config.scale);
  bench::compare("% of TCP-reachable negotiating ECN",
                 summary.pct_tcp_negotiating_ecn, 82.0, "%");
  bench::compare("mean reachable via UDP (for contrast)",
                 summary.mean_reachable_udp_plain, 2253 * config.scale);
  return 0;
}
