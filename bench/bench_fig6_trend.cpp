// Figure 6: ECN-with-TCP adoption over time. Plots the prior studies the
// paper cites together with this campaign's measured negotiation rate and a
// logistic growth fit.
#include <cstdio>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/analysis/trend.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Figure 6: trends in ECN TCP capability", config, params);

  // A light campaign (one trace per vantage) suffices for the single
  // "measured" data point.
  const auto plan = measure::CampaignPlan::paper_layout(1, 0, 1);
  std::printf("measuring the 2015 point with %d traces...\n", plan.total_traces());
  bench::Stopwatch timer;
  const auto traces = scenario::run_campaign(params, plan).traces;
  const auto summary = analysis::summarize_reachability(traces);
  std::printf("measured ECN negotiation rate: %.2f%% (%.1fs)\n\n",
              summary.pct_tcp_negotiating_ecn, timer.seconds());

  const auto points = analysis::trend_with_measurement(summary.pct_tcp_negotiating_ecn);
  std::printf("%s\n", analysis::render_figure6(points).c_str());

  std::printf("comparison:\n");
  bench::compare("measured 2015 negotiation rate", summary.pct_tcp_negotiating_ecn,
                 82.0, "%");
  const auto fit = analysis::fit_trend(points);
  bench::compare("fit residual at 2015.6 (measured - curve)",
                 summary.pct_tcp_negotiating_ecn - fit.predict(2015.6), 0.0, "pp");
  return 0;
}
