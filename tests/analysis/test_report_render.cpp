// Rendering smoke+shape tests for the figure/table report generators.
#include <gtest/gtest.h>

#include <algorithm>

#include "ecnprobe/analysis/markdown_report.hpp"
#include "ecnprobe/analysis/report.hpp"

namespace ecnprobe::analysis {
namespace {

std::vector<TraceReachability> synthetic_traces() {
  std::vector<TraceReachability> out;
  const char* vantages[] = {"Perkins home", "McQuistin home", "EC2 Vir"};
  int index = 0;
  for (const auto* vantage : vantages) {
    for (int i = 0; i < 3; ++i) {
      TraceReachability t;
      t.vantage = vantage;
      t.index = index++;
      t.reachable_udp_plain = 2250;
      t.reachable_udp_ect0 = 2230;
      t.reachable_tcp = 1330;
      t.negotiated_ecn_tcp = 1090;
      t.pct_ect_given_plain = vantage == std::string("McQuistin home") ? 92.5 : 99.4;
      t.pct_plain_given_ect = 99.5;
      out.push_back(t);
    }
  }
  return out;
}

TEST(ReportRender, Figure2HasAxisAndBars) {
  const auto out = render_figure2a(synthetic_traces());
  EXPECT_NE(out.find("100.0%"), std::string::npos);
  EXPECT_NE(out.find("90.0%"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  // Vantage labels appear once per group (condensed).
  EXPECT_NE(out.find('P'), std::string::npos);
}

TEST(ReportRender, Figure2bUsesConverseSeries) {
  const auto a = render_figure2a(synthetic_traces());
  const auto b = render_figure2b(synthetic_traces());
  EXPECT_NE(a, b);  // different data series
}

TEST(ReportRender, Figure5ShowsBothSeries) {
  const auto out = render_figure5(synthetic_traces(), 2500);
  EXPECT_NE(out.find("Reachable using TCP"), std::string::npos);
  EXPECT_NE(out.find("negotiated ECN"), std::string::npos);
}

TEST(ReportRender, Figure3SpikesVisible) {
  measure::Trace trace;
  trace.vantage = "A";
  trace.servers.resize(200);
  for (std::size_t i = 0; i < trace.servers.size(); ++i) {
    auto& s = trace.servers[i];
    s.server = wire::Ipv4Address(11, 0, 1, static_cast<std::uint8_t>(i));
    s.udp_plain.reachable = true;
    s.udp_ect0.reachable = i != 50;  // one firewalled spike
  }
  const auto diffs = per_server_differential({trace});
  const auto out = render_figure3a(diffs);
  EXPECT_NE(out.find('|'), std::string::npos);
  // A vantage with no data renders only the axis: one '|' per plot row.
  const auto empty = render_figure3a(diffs, "NoSuchVantage");
  EXPECT_LT(std::count(empty.begin(), empty.end(), '|'),
            std::count(out.begin(), out.end(), '|'));
}

TEST(ReportRender, Figure4SummarisesCounts) {
  HopAnalysis analysis;
  analysis.total_hops = 155439;
  analysis.pass_hops = 154296;
  analysis.strip_hops = 1143;
  analysis.sometimes_strip = 125;
  analysis.strip_locations = 200;
  analysis.strip_locations_at_boundary = 118;
  analysis.paths = 32500;
  analysis.mean_responding_hops_per_path = 4.78;
  const auto out = render_figure4(analysis, {});
  EXPECT_NE(out.find("155,439"), std::string::npos);
  EXPECT_NE(out.find("1,143"), std::string::npos);
  EXPECT_NE(out.find("59.0%"), std::string::npos);  // 118/200
}

TEST(ReportRender, Figure4DrawsSamplePaths) {
  HopAnalysis analysis;
  std::vector<measure::TracerouteObservation> samples(1);
  samples[0].vantage = "EC2 Vir";
  samples[0].path.destination = wire::Ipv4Address(11, 0, 0, 9);
  traceroute::HopRecord intact;
  intact.responded = true;
  intact.responder = wire::Ipv4Address(12, 0, 0, 1);
  intact.sent_ecn = wire::Ecn::Ect0;
  intact.quoted_ecn = wire::Ecn::Ect0;
  traceroute::HopRecord stripped = intact;
  stripped.quoted_ecn = wire::Ecn::NotEct;
  traceroute::HopRecord silent;
  samples[0].path.hops = {intact, stripped, silent};
  const auto out = render_figure4(analysis, samples);
  EXPECT_NE(out.find("+-."), std::string::npos);  // the three verdict glyphs
}

TEST(ReportRender, Table2RoundsToWholeServers) {
  std::vector<CorrelationRow> rows = {{"Perkins home", 8.4, 2.6}};
  const auto out = render_table2(rows);
  EXPECT_NE(out.find("Perkins home"), std::string::npos);
  EXPECT_NE(out.find("8"), std::string::npos);
  EXPECT_NE(out.find("3"), std::string::npos);  // 2.6 rounds to 3
}

TEST(MarkdownReport, ContainsEverySectionAndBalancedFences) {
  ReportInputs inputs;
  measure::Trace trace;
  trace.vantage = "UGla wired";
  measure::ServerResult s1;
  s1.server = wire::Ipv4Address(11, 0, 0, 1);
  s1.udp_plain.reachable = true;
  s1.udp_ect0.reachable = true;
  s1.tcp_plain.connected = true;
  s1.tcp_plain.got_response = true;
  s1.tcp_ecn.connected = true;
  s1.tcp_ecn.ecn_negotiated = true;
  trace.servers = {s1};
  inputs.figures.add(trace);
  GeoSummary geo_summary;
  geo_summary.counts[geo::Region::Europe] = 1;
  geo_summary.total = 1;
  inputs.geo = geo_summary;

  const auto report = render_markdown_report(inputs);
  for (const char* heading :
       {"# ECN-with-UDP measurement report", "## Headline numbers",
        "## Table 1", "## Figure 1", "## Figure 2a", "## Figure 2b",
        "## Figure 3a", "## Figure 3b", "## Figure 5", "## Figure 6",
        "## Table 2"}) {
    EXPECT_NE(report.find(heading), std::string::npos) << heading;
  }
  // No traceroute inputs: the Figure 4 section is omitted.
  EXPECT_EQ(report.find("## Figure 4"), std::string::npos);
  // Balanced code fences.
  std::size_t fences = 0;
  for (std::size_t pos = report.find("```"); pos != std::string::npos;
       pos = report.find("```", pos + 3)) {
    ++fences;
  }
  EXPECT_EQ(fences % 2, 0u);
  EXPECT_GE(fences, 18u);
}

TEST(MarkdownReport, IncludesFigure4WithTracerouteData) {
  ReportInputs inputs;
  measure::Trace trace;
  trace.vantage = "A";
  inputs.figures.add(trace);
  measure::TracerouteObservation obs;
  obs.vantage = "A";
  obs.path.destination = wire::Ipv4Address(11, 0, 0, 1);
  traceroute::HopRecord hop;
  hop.responded = true;
  hop.responder = wire::Ipv4Address(12, 0, 0, 1);
  hop.sent_ecn = wire::Ecn::Ect0;
  hop.quoted_ecn = wire::Ecn::Ect0;
  hop.ttl = 1;
  obs.path.hops = {hop};
  inputs.traceroutes = {obs};
  topology::IpToAsMap ip2as;
  ip2as.add(wire::Ipv4Address(12, 0, 0, 0), 24, 100);
  inputs.ip2as = &ip2as;
  const auto report = render_markdown_report(inputs);
  EXPECT_NE(report.find("## Figure 4"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::analysis
