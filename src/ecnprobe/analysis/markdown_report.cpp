#include "ecnprobe/analysis/markdown_report.hpp"

#include <sstream>

#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/analysis/trend.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::analysis {

namespace {

void fenced(std::ostringstream& out, const std::string& body) {
  out << "```\n" << body;
  if (!body.empty() && body.back() != '\n') out << '\n';
  out << "```\n\n";
}

}  // namespace

std::string render_markdown_report(const ReportInputs& inputs) {
  std::ostringstream out;
  out << "# " << inputs.title << "\n\n";

  const auto& figures = inputs.figures;
  const auto summary = figures.summary();
  const int server_count = figures.server_count();
  out << util::strf("%zu traces over %d servers from %zu vantage points.\n\n",
                    figures.trace_count(), server_count, figures.per_vantage().size());

  out << "## Headline numbers\n\n";
  fenced(out, render_summary(summary));

  if (inputs.geo) {
    out << "## Table 1 — geographic distribution\n\n";
    fenced(out, render_table1(*inputs.geo));
    out << "## Figure 1 — server locations\n\n";
    fenced(out, render_figure1(*inputs.geo, 80, 22));
  }

  const auto& per_trace = figures.per_trace();
  out << "## Figure 2a — ECT(0) reachability of not-ECT-reachable servers\n\n";
  fenced(out, render_figure2a(per_trace));
  out << "## Figure 2b — converse\n\n";
  fenced(out, render_figure2b(per_trace));

  const auto& diffs = figures.differential();
  out << "## Figure 3a — per-server differential reachability\n\n";
  fenced(out, render_figure3a(diffs));
  out << "## Figure 3b — converse\n\n";
  fenced(out, render_figure3b(diffs));

  if (!inputs.traceroutes.empty() && inputs.ip2as != nullptr) {
    out << "## Figure 4 — ECN mark stripping\n\n";
    const auto hops = analyze_hops(inputs.traceroutes, *inputs.ip2as);
    fenced(out, render_figure4(hops, inputs.traceroutes, 8));
  }

  out << "## Figure 5 — TCP reachability and ECN negotiation\n\n";
  fenced(out, render_figure5(per_trace, server_count));

  out << "## Figure 6 — adoption trend\n\n";
  fenced(out,
         render_figure6(trend_with_measurement(summary.pct_tcp_negotiating_ecn)));

  out << "## Table 2 — UDP vs TCP ECN failure correlation\n\n";
  fenced(out, render_table2(figures.correlation()));

  return out.str();
}

}  // namespace ecnprobe::analysis
