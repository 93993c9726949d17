#include "ecnprobe/analysis/report.hpp"

#include <algorithm>
#include <sstream>

#include "ecnprobe/util/chart.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/table.hpp"

namespace ecnprobe::analysis {

namespace {

// Short labels for Figure 2/5 bar groups; one label per vantage group.
std::string short_label(const std::string& vantage) {
  std::string out;
  for (char c : vantage) {
    if (c == ' ') continue;
    out.push_back(c);
  }
  return out.size() > 6 ? out.substr(0, 6) : out;
}

std::string render_reachability_bars(const std::vector<TraceReachability>& traces,
                                     bool ect_given_plain) {
  std::vector<double> values;
  std::vector<std::string> labels;
  std::string last_vantage;
  for (const auto& t : traces) {
    values.push_back(ect_given_plain ? t.pct_ect_given_plain : t.pct_plain_given_ect);
    labels.push_back(t.vantage == last_vantage ? "" : short_label(t.vantage));
    last_vantage = t.vantage;
  }
  util::BarChartOptions opts;
  opts.y_min = 90.0;
  opts.y_max = 100.0;
  opts.height = 10;
  return util::render_bar_chart(values, labels, opts);
}

}  // namespace

std::string render_table1(const GeoSummary& summary) {
  util::TextTable table({"Region", "NTP Server Count"},
                        {util::TextTable::Align::Left, util::TextTable::Align::Right});
  for (const auto region : geo::all_regions()) {
    const auto it = summary.counts.find(region);
    table.add_row({std::string(geo::to_string(region)),
                   std::to_string(it == summary.counts.end() ? 0 : it->second)});
  }
  table.add_row({"Total", std::to_string(summary.total)});
  return table.to_string();
}

std::string render_figure1(const GeoSummary& summary, int width, int height) {
  return util::render_world_map(summary.locations, width, height);
}

std::string render_figure2a(const std::vector<TraceReachability>& traces) {
  return render_reachability_bars(traces, true);
}

std::string render_figure2b(const std::vector<TraceReachability>& traces) {
  return render_reachability_bars(traces, false);
}

namespace {

std::string render_differential(const ServerDifferentials& differentials,
                                const std::string& vantage, bool plain_not_ect) {
  const auto column = differentials.column(vantage);
  std::vector<double> values;
  values.reserve(differentials.size());
  for (std::size_t row = 0; row < differentials.size(); ++row) {
    DifferentialCell cell;
    if (vantage.empty()) {
      cell = differentials.total(row);
    } else if (column) {
      cell = differentials.cell(row, *column);
    }
    const auto pct = plain_not_ect ? cell.plain_not_ect_pct() : cell.ect_not_plain_pct();
    values.push_back(pct.value_or(0.0));
  }
  util::SpikePlotOptions opts;
  opts.width = 100;
  opts.height = 8;
  opts.y_max = 100.0;
  return util::render_spike_plot(values, opts);
}

}  // namespace

std::string render_figure3a(const ServerDifferentials& differentials,
                            const std::string& vantage) {
  return render_differential(differentials, vantage, true);
}

std::string render_figure3b(const ServerDifferentials& differentials,
                            const std::string& vantage) {
  return render_differential(differentials, vantage, false);
}

std::string render_figure4(const HopAnalysis& analysis,
                           const std::vector<measure::TracerouteObservation>& sample_paths,
                           std::size_t max_paths) {
  std::ostringstream out;
  out << "Traceroute hop analysis (Figure 4 / Section 4.2)\n";
  out << util::strf("  hops measured (vantage,dest,responder): %s\n",
                    util::with_commas(static_cast<std::int64_t>(analysis.total_hops)).c_str());
  out << util::strf("  hops passing ECT(0) unmodified:         %s (%.2f%%)\n",
                    util::with_commas(static_cast<std::int64_t>(
                                          analysis.pass_hops + analysis.sometimes_strip))
                        .c_str(),
                    analysis.pct_hops_passing());
  out << util::strf("  hops where mark seen stripped:          %s (%zu only sometimes)\n",
                    util::with_commas(static_cast<std::int64_t>(analysis.strip_hops)).c_str(),
                    static_cast<std::size_t>(analysis.sometimes_strip));
  out << util::strf("  distinct strip locations:               %zu\n",
                    static_cast<std::size_t>(analysis.strip_locations));
  out << util::strf("  strip locations at AS boundaries:       %zu (%.1f%% of attributed)\n",
                    static_cast<std::size_t>(analysis.strip_locations_at_boundary),
                    analysis.pct_strips_at_boundary());
  out << util::strf("  ASes observed:                          %zu\n",
                    static_cast<std::size_t>(analysis.ases_observed));
  out << util::strf("  ECN-CE marks observed:                  %zu\n",
                    static_cast<std::size_t>(analysis.ce_marks_seen));
  out << util::strf("  mean responding hops per path:          %.2f\n",
                    analysis.mean_responding_hops_per_path);

  if (!sample_paths.empty()) {
    out << "\n  sample paths ('+' ECN intact, '-' stripped, '.' silent):\n";
    for (std::size_t i = 0; i < std::min(max_paths, sample_paths.size()); ++i) {
      const auto& obs = sample_paths[i];
      out << util::strf("  %-18s -> %-15s ", obs.vantage.c_str(),
                        obs.path.destination.to_string().c_str());
      for (const auto& hop : obs.path.hops) {
        out << (!hop.responded ? '.' : hop.ecn_intact() ? '+' : '-');
      }
      out << '\n';
    }
  }
  return out.str();
}

std::string render_figure5(const std::vector<TraceReachability>& traces,
                           int server_count) {
  std::vector<double> negotiated;
  std::vector<double> reachable;
  std::vector<std::string> labels;
  std::string last_vantage;
  for (const auto& t : traces) {
    negotiated.push_back(t.negotiated_ecn_tcp);
    reachable.push_back(t.reachable_tcp);
    labels.push_back(t.vantage == last_vantage ? "" : short_label(t.vantage));
    last_vantage = t.vantage;
  }
  util::BarChartOptions opts;
  opts.y_min = 0.0;
  opts.y_max = static_cast<double>(server_count);
  opts.height = 12;
  opts.y_unit = "";
  std::ostringstream out;
  out << "Reachable using TCP (per trace):\n";
  out << util::render_bar_chart(reachable, labels, opts);
  out << "\nReachable using TCP and negotiated ECN (per trace):\n";
  out << util::render_bar_chart(negotiated, labels, opts);
  return out.str();
}

std::string render_figure6(const std::vector<TrendPoint>& points) {
  std::vector<util::ScatterPoint> scatter;
  for (const auto& p : points) {
    scatter.push_back({p.year, p.pct_negotiating, p.measured ? '@' : 'o'});
  }
  const auto fit = fit_trend(points);
  std::vector<util::ScatterPoint> curve;
  for (double year = 2000.0; year <= 2016.0; year += 0.125) {
    curve.push_back({year, fit.predict(year), '.'});
  }
  util::ScatterOptions opts;
  opts.width = 64;
  opts.height = 16;
  opts.x_min = 2000.0;
  opts.x_max = 2016.0;
  opts.y_min = 0.0;
  opts.y_max = 100.0;
  std::ostringstream out;
  out << "Negotiated ECN (%) over time ('o' prior studies, '@' measured):\n";
  out << util::render_scatter(scatter, opts, curve);
  util::TextTable table({"Study", "Year", "Negotiated ECN"},
                        {util::TextTable::Align::Left, util::TextTable::Align::Right,
                         util::TextTable::Align::Right});
  for (const auto& p : points) {
    table.add_row({p.label, util::strf("%.1f", p.year),
                   util::strf("%.2f%%", p.pct_negotiating)});
  }
  out << table.to_string();
  out << util::strf("logistic fit: midpoint=%.1f rate=%.2f/yr\n", fit.midpoint, fit.rate);
  return out.str();
}

std::string render_table2(const std::vector<CorrelationRow>& rows) {
  util::TextTable table(
      {"Location", "Avg. unreachable UDP with ECT", "Num failing ECN w/TCP"},
      {util::TextTable::Align::Left, util::TextTable::Align::Right,
       util::TextTable::Align::Right});
  for (const auto& row : rows) {
    table.add_row({row.vantage, util::strf("%.0f", row.avg_unreachable_udp_with_ect),
                   util::strf("%.0f", row.avg_also_fail_tcp_ecn)});
  }
  return table.to_string();
}

std::string render_summary(const ReachabilitySummary& summary) {
  std::ostringstream out;
  out << util::strf("mean servers reachable with not-ECT UDP:   %.0f\n",
                    summary.mean_reachable_udp_plain);
  out << util::strf("mean %% ECT(0)-reachable given not-ECT:     %.2f%% (paper: 98.97%%)\n",
                    summary.mean_pct_ect_given_plain);
  out << util::strf("min  %% ECT(0)-reachable given not-ECT:     %.2f%% (paper: >90%%)\n",
                    summary.min_pct_ect_given_plain);
  out << util::strf("mean %% not-ECT-reachable given ECT(0):     %.2f%% (paper: 99.45%%)\n",
                    summary.mean_pct_plain_given_ect);
  out << util::strf("mean web servers responding via TCP:       %.0f (paper: 1334)\n",
                    summary.mean_reachable_tcp);
  out << util::strf("mean servers negotiating ECN with TCP:     %.0f (paper: 1095)\n",
                    summary.mean_negotiated_ecn_tcp);
  out << util::strf("%% of TCP-reachable negotiating ECN:        %.1f%% (paper: 82.0%%)\n",
                    summary.pct_tcp_negotiating_ecn);
  return out.str();
}

}  // namespace ecnprobe::analysis
