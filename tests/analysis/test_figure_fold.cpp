// analysis::FigureFold computes every Section 4 figure in one pass over the
// traces, with Figure 3 on integer counts per (server, vantage) column.
// Its results must equal the per-figure functions it replaced, kept below
// as the reference: each re-reads the traces (measure::Trace counted each
// per-trace value in a pass of its own), groups by vantage in a
// std::map<std::string, ...>, and Figure 3 keeps one string-keyed map of
// percentages per server. Random trace sets cover vantage names whose
// sorted order differs from their first-seen order, servers missing from
// some traces or listed in another order, a vantage that never reaches a
// server plain, one trace and no trace. Every value must match bit for bit
// and every rendered figure byte for byte.
#include "ecnprobe/analysis/figures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/util/chart.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/util/stats.hpp"

namespace ecnprobe::analysis {
namespace {

using measure::ServerResult;
using measure::Trace;

// -- reference: the map-based per-figure functions ----------------------------

namespace reference {

// The per-trace counts measure::Trace computed, one pass each.
int reachable_udp_plain(const Trace& trace) {
  int n = 0;
  for (const auto& s : trace.servers) n += s.udp_plain.reachable ? 1 : 0;
  return n;
}

int reachable_udp_ect0(const Trace& trace) {
  int n = 0;
  for (const auto& s : trace.servers) n += s.udp_ect0.reachable ? 1 : 0;
  return n;
}

int reachable_tcp(const Trace& trace) {
  int n = 0;
  for (const auto& s : trace.servers) n += s.tcp_plain.got_response ? 1 : 0;
  return n;
}

int negotiated_ecn_tcp(const Trace& trace) {
  int n = 0;
  for (const auto& s : trace.servers) {
    n += (s.tcp_ecn.connected && s.tcp_ecn.ecn_negotiated) ? 1 : 0;
  }
  return n;
}

double pct_ect_given_plain(const Trace& trace) {
  int plain = 0;
  int both = 0;
  for (const auto& s : trace.servers) {
    if (!s.udp_plain.reachable) continue;
    ++plain;
    if (s.udp_ect0.reachable) ++both;
  }
  return plain == 0 ? 0.0 : 100.0 * both / plain;
}

double pct_plain_given_ect(const Trace& trace) {
  int ect = 0;
  int both = 0;
  for (const auto& s : trace.servers) {
    if (!s.udp_ect0.reachable) continue;
    ++ect;
    if (s.udp_plain.reachable) ++both;
  }
  return ect == 0 ? 0.0 : 100.0 * both / ect;
}

int unreachable_udp_with_ect(const Trace& trace) {
  int n = 0;
  for (const auto& s : trace.servers) {
    n += (s.udp_plain.reachable && !s.udp_ect0.reachable) ? 1 : 0;
  }
  return n;
}

std::vector<TraceReachability> per_trace_reachability(const std::vector<Trace>& traces) {
  std::vector<TraceReachability> out;
  for (const auto& trace : traces) {
    TraceReachability r;
    r.vantage = trace.vantage;
    r.batch = trace.batch;
    r.index = trace.index;
    r.reachable_udp_plain = reachable_udp_plain(trace);
    r.reachable_udp_ect0 = reachable_udp_ect0(trace);
    r.reachable_tcp = reachable_tcp(trace);
    r.negotiated_ecn_tcp = negotiated_ecn_tcp(trace);
    r.pct_ect_given_plain = pct_ect_given_plain(trace);
    r.pct_plain_given_ect = pct_plain_given_ect(trace);
    out.push_back(std::move(r));
  }
  return out;
}

ReachabilitySummary summarize_reachability(const std::vector<Trace>& traces) {
  util::RunningStats plain;
  util::RunningStats pct_ect;
  util::RunningStats pct_plain;
  util::RunningStats tcp;
  util::RunningStats tcp_ecn;
  for (const auto& trace : traces) {
    plain.add(reachable_udp_plain(trace));
    pct_ect.add(pct_ect_given_plain(trace));
    pct_plain.add(pct_plain_given_ect(trace));
    tcp.add(reachable_tcp(trace));
    tcp_ecn.add(negotiated_ecn_tcp(trace));
  }
  ReachabilitySummary s;
  s.mean_reachable_udp_plain = plain.mean();
  s.mean_pct_ect_given_plain = pct_ect.mean();
  s.min_pct_ect_given_plain = pct_ect.min();
  s.mean_pct_plain_given_ect = pct_plain.mean();
  s.mean_reachable_tcp = tcp.mean();
  s.mean_negotiated_ecn_tcp = tcp_ecn.mean();
  s.pct_tcp_negotiating_ecn =
      tcp.mean() > 0.0 ? 100.0 * tcp_ecn.mean() / tcp.mean() : 0.0;
  return s;
}

std::vector<VantageReachability> per_vantage_reachability(const std::vector<Trace>& traces) {
  std::map<std::string, std::pair<util::RunningStats, util::RunningStats>> by_vantage;
  std::vector<std::string> order;
  for (const auto& trace : traces) {
    if (!by_vantage.contains(trace.vantage)) order.push_back(trace.vantage);
    auto& [pct, plain] = by_vantage[trace.vantage];
    pct.add(pct_ect_given_plain(trace));
    plain.add(reachable_udp_plain(trace));
  }
  std::vector<VantageReachability> out;
  for (const auto& vantage : order) {
    const auto& [pct, plain] = by_vantage.at(vantage);
    VantageReachability r;
    r.vantage = vantage;
    r.traces = static_cast<int>(pct.count());
    r.mean_pct_ect_given_plain = pct.mean();
    r.mean_reachable_udp_plain = plain.mean();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<CorrelationRow> correlation_table(const std::vector<Trace>& traces) {
  struct Acc {
    util::RunningStats unreachable;
    util::RunningStats fail_tcp;
  };
  std::map<std::string, Acc> by_vantage;
  std::vector<std::string> order;
  for (const auto& trace : traces) {
    int unreachable_with_ect = 0;
    int also_fail_tcp_ecn = 0;
    for (const auto& s : trace.servers) {
      if (!(s.udp_plain.reachable && !s.udp_ect0.reachable)) continue;
      ++unreachable_with_ect;
      if (s.tcp_plain.got_response && !(s.tcp_ecn.connected && s.tcp_ecn.ecn_negotiated)) {
        ++also_fail_tcp_ecn;
      }
    }
    if (!by_vantage.contains(trace.vantage)) order.push_back(trace.vantage);
    by_vantage[trace.vantage].unreachable.add(unreachable_with_ect);
    by_vantage[trace.vantage].fail_tcp.add(also_fail_tcp_ecn);
  }
  std::vector<CorrelationRow> out;
  for (const auto& vantage : order) {
    const auto& acc = by_vantage.at(vantage);
    out.push_back(CorrelationRow{vantage, acc.unreachable.mean(), acc.fail_tcp.mean()});
  }
  return out;
}

struct ServerDifferential {
  wire::Ipv4Address server;
  std::map<std::string, double> plain_not_ect_pct;
  std::map<std::string, double> ect_not_plain_pct;
  double overall_plain_not_ect_pct = 0.0;
  double overall_ect_not_plain_pct = 0.0;
};

std::vector<ServerDifferential> per_server_differential(const std::vector<Trace>& traces) {
  struct Counters {
    std::map<std::string, int> plain;
    std::map<std::string, int> plain_not_ect;
    std::map<std::string, int> ect;
    std::map<std::string, int> ect_not_plain;
  };
  std::map<std::uint32_t, Counters> by_server;
  std::vector<std::uint32_t> order;
  for (const auto& trace : traces) {
    for (const auto& s : trace.servers) {
      if (!by_server.contains(s.server.value())) order.push_back(s.server.value());
      Counters& c = by_server[s.server.value()];
      if (s.udp_plain.reachable) {
        ++c.plain[trace.vantage];
        if (!s.udp_ect0.reachable) ++c.plain_not_ect[trace.vantage];
      }
      if (s.udp_ect0.reachable) {
        ++c.ect[trace.vantage];
        if (!s.udp_plain.reachable) ++c.ect_not_plain[trace.vantage];
      }
    }
  }
  std::vector<ServerDifferential> out;
  for (const auto addr : order) {
    const Counters& c = by_server.at(addr);
    ServerDifferential d;
    d.server = wire::Ipv4Address{addr};
    int plain_total = 0;
    int plain_not_ect_total = 0;
    for (const auto& [vantage, n] : c.plain) {
      const auto it = c.plain_not_ect.find(vantage);
      const int failed = it == c.plain_not_ect.end() ? 0 : it->second;
      d.plain_not_ect_pct[vantage] = 100.0 * failed / n;
      plain_total += n;
      plain_not_ect_total += failed;
    }
    int ect_total = 0;
    int ect_not_plain_total = 0;
    for (const auto& [vantage, n] : c.ect) {
      const auto it = c.ect_not_plain.find(vantage);
      const int failed = it == c.ect_not_plain.end() ? 0 : it->second;
      d.ect_not_plain_pct[vantage] = 100.0 * failed / n;
      ect_total += n;
      ect_not_plain_total += failed;
    }
    d.overall_plain_not_ect_pct =
        plain_total == 0 ? 0.0 : 100.0 * plain_not_ect_total / plain_total;
    d.overall_ect_not_plain_pct =
        ect_total == 0 ? 0.0 : 100.0 * ect_not_plain_total / ect_total;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<DifferentialCounts> count_over_threshold(
    const std::vector<ServerDifferential>& differentials,
    const std::vector<std::string>& vantages, double threshold_pct) {
  std::vector<DifferentialCounts> out;
  for (const auto& vantage : vantages) {
    DifferentialCounts counts;
    counts.vantage = vantage;
    for (const auto& d : differentials) {
      const auto a = d.plain_not_ect_pct.find(vantage);
      if (a != d.plain_not_ect_pct.end() && a->second > threshold_pct) {
        ++counts.plain_not_ect_over_threshold;
      }
      const auto b = d.ect_not_plain_pct.find(vantage);
      if (b != d.ect_not_plain_pct.end() && b->second > threshold_pct) {
        ++counts.ect_not_plain_over_threshold;
      }
    }
    out.push_back(std::move(counts));
  }
  return out;
}

std::vector<wire::Ipv4Address> persistent_failures(
    const std::vector<ServerDifferential>& differentials,
    const std::vector<std::string>& vantages, double threshold_pct) {
  std::vector<wire::Ipv4Address> out;
  for (const auto& d : differentials) {
    const bool everywhere = std::all_of(
        vantages.begin(), vantages.end(), [&](const std::string& vantage) {
          const auto it = d.plain_not_ect_pct.find(vantage);
          return it != d.plain_not_ect_pct.end() && it->second > threshold_pct;
        });
    if (everywhere) out.push_back(d.server);
  }
  return out;
}

std::string render_figure3(const std::vector<ServerDifferential>& differentials,
                           const std::string& vantage, bool plain_not_ect) {
  std::vector<double> values;
  for (const auto& d : differentials) {
    double v = 0.0;
    if (vantage.empty()) {
      v = plain_not_ect ? d.overall_plain_not_ect_pct : d.overall_ect_not_plain_pct;
    } else {
      const auto& m = plain_not_ect ? d.plain_not_ect_pct : d.ect_not_plain_pct;
      const auto it = m.find(vantage);
      v = it == m.end() ? 0.0 : it->second;
    }
    values.push_back(v);
  }
  util::SpikePlotOptions opts;
  opts.width = 100;
  opts.height = 8;
  opts.y_max = 100.0;
  return util::render_spike_plot(values, opts);
}

}  // namespace reference

// -- random trace sets --------------------------------------------------------

struct Shape {
  int traces = 0;
  int servers = 0;
  bool drop_servers = false;     ///< leave some servers out of some traces
  bool shuffle_servers = false;  ///< list a trace's servers in its own order
};

// First-seen order differs from sorted order ("Perkins home" first, "A"
// last). Server 3, firewalled, is never reached plain from "McQuistin
// home".
const std::vector<std::string> kVantages = {"Perkins home", "EC2 Vir", "McQuistin home",
                                            "B", "A"};

std::vector<Trace> random_traces(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Trace> traces;
  for (int t = 0; t < shape.traces; ++t) {
    Trace trace;
    trace.vantage = kVantages[static_cast<std::size_t>(t) % kVantages.size()];
    trace.batch = 1 + t % 2;
    trace.index = t;
    for (int i = 0; i < shape.servers; ++i) {
      if (shape.drop_servers && rng.bernoulli(0.15)) continue;
      ServerResult s;
      s.server = wire::Ipv4Address(0x0b000000u + static_cast<std::uint32_t>(i));
      // A few firewalled servers fail ECT(0) nearly always; the rest fail
      // either marking now and then.
      const bool firewalled = i % 7 == 3;
      s.udp_plain.reachable = rng.bernoulli(0.9);
      s.udp_ect0.reachable = firewalled ? rng.bernoulli(0.05) : rng.bernoulli(0.88);
      if (i == 3 && trace.vantage == "McQuistin home") s.udp_plain.reachable = false;
      s.tcp_plain.got_response = rng.bernoulli(0.55);
      s.tcp_plain.connected = s.tcp_plain.got_response;
      s.tcp_ecn.connected = rng.bernoulli(0.6);
      s.tcp_ecn.ecn_negotiated = rng.bernoulli(0.8);
      trace.servers.push_back(s);
    }
    if (shape.shuffle_servers) {
      for (std::size_t i = trace.servers.size(); i > 1; --i) {
        std::swap(trace.servers[i - 1], trace.servers[rng.next_below(i)]);
      }
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

// -- comparisons ----------------------------------------------------------------

void expect_same_bits(double fold, double ref, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fold), std::bit_cast<std::uint64_t>(ref))
      << what << ": fold " << fold << " vs reference " << ref;
}

/// The vantage lists the threshold queries are asked with: every vantage,
/// a subset, one no trace came from, and none.
std::vector<std::vector<std::string>> vantage_lists() {
  return {kVantages, {"A", "Perkins home"}, {"EC2 Vir", "Nowhere"}, {}};
}

void expect_fold_matches_reference(const std::vector<Trace>& traces) {
  const FigureFold fold(traces);

  const auto rows = fold.per_trace();
  const auto ref_rows = reference::per_trace_reachability(traces);
  ASSERT_EQ(rows.size(), ref_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].vantage, ref_rows[i].vantage);
    EXPECT_EQ(rows[i].batch, ref_rows[i].batch);
    EXPECT_EQ(rows[i].index, ref_rows[i].index);
    EXPECT_EQ(rows[i].reachable_udp_plain, ref_rows[i].reachable_udp_plain);
    EXPECT_EQ(rows[i].reachable_udp_ect0, ref_rows[i].reachable_udp_ect0);
    EXPECT_EQ(rows[i].reachable_tcp, ref_rows[i].reachable_tcp);
    EXPECT_EQ(rows[i].negotiated_ecn_tcp, ref_rows[i].negotiated_ecn_tcp);
    expect_same_bits(rows[i].pct_ect_given_plain, ref_rows[i].pct_ect_given_plain, "F2a");
    expect_same_bits(rows[i].pct_plain_given_ect, ref_rows[i].pct_plain_given_ect, "F2b");
    EXPECT_EQ(rows[i].unreachable_udp_with_ect, reference::unreachable_udp_with_ect(traces[i]));
  }
  EXPECT_EQ(fold.trace_count(), traces.size());
  EXPECT_EQ(fold.server_count(),
            traces.empty() ? 0 : static_cast<int>(traces.front().servers.size()));

  const auto summary = fold.summary();
  const auto ref_summary = reference::summarize_reachability(traces);
  expect_same_bits(summary.mean_reachable_udp_plain, ref_summary.mean_reachable_udp_plain,
                   "mean plain");
  expect_same_bits(summary.mean_pct_ect_given_plain, ref_summary.mean_pct_ect_given_plain,
                   "mean F2a");
  expect_same_bits(summary.min_pct_ect_given_plain, ref_summary.min_pct_ect_given_plain,
                   "min F2a");
  expect_same_bits(summary.mean_pct_plain_given_ect, ref_summary.mean_pct_plain_given_ect,
                   "mean F2b");
  expect_same_bits(summary.mean_reachable_tcp, ref_summary.mean_reachable_tcp, "mean TCP");
  expect_same_bits(summary.mean_negotiated_ecn_tcp, ref_summary.mean_negotiated_ecn_tcp,
                   "mean ECN");
  expect_same_bits(summary.pct_tcp_negotiating_ecn, ref_summary.pct_tcp_negotiating_ecn,
                   "F5 %");

  const auto vantages = fold.per_vantage();
  const auto ref_vantages = reference::per_vantage_reachability(traces);
  ASSERT_EQ(vantages.size(), ref_vantages.size());
  for (std::size_t i = 0; i < vantages.size(); ++i) {
    EXPECT_EQ(vantages[i].vantage, ref_vantages[i].vantage);
    EXPECT_EQ(vantages[i].traces, ref_vantages[i].traces);
    expect_same_bits(vantages[i].mean_pct_ect_given_plain,
                     ref_vantages[i].mean_pct_ect_given_plain, "vantage F2a");
    expect_same_bits(vantages[i].mean_reachable_udp_plain,
                     ref_vantages[i].mean_reachable_udp_plain, "vantage plain");
  }

  const auto t2 = fold.correlation();
  const auto ref_t2 = reference::correlation_table(traces);
  ASSERT_EQ(t2.size(), ref_t2.size());
  for (std::size_t i = 0; i < t2.size(); ++i) {
    EXPECT_EQ(t2[i].vantage, ref_t2[i].vantage);
    expect_same_bits(t2[i].avg_unreachable_udp_with_ect, ref_t2[i].avg_unreachable_udp_with_ect,
                     "T2 unreachable");
    expect_same_bits(t2[i].avg_also_fail_tcp_ecn, ref_t2[i].avg_also_fail_tcp_ecn,
                     "T2 TCP");
  }

  const auto& diffs = fold.differential();
  const auto ref_diffs = reference::per_server_differential(traces);
  ASSERT_EQ(diffs.size(), ref_diffs.size());
  for (std::size_t row = 0; row < diffs.size(); ++row) {
    const auto& ref = ref_diffs[row];
    ASSERT_EQ(diffs.server(row), ref.server);
    for (const auto& vantage : kVantages) {
      const auto cell = diffs.cell(row, vantage);
      const auto a = ref.plain_not_ect_pct.find(vantage);
      ASSERT_EQ(cell.plain_not_ect_pct().has_value(), a != ref.plain_not_ect_pct.end())
          << ref.server.to_string() << " from " << vantage;
      if (a != ref.plain_not_ect_pct.end()) {
        expect_same_bits(*cell.plain_not_ect_pct(), a->second, "F3a cell");
      }
      const auto b = ref.ect_not_plain_pct.find(vantage);
      ASSERT_EQ(cell.ect_not_plain_pct().has_value(), b != ref.ect_not_plain_pct.end())
          << ref.server.to_string() << " from " << vantage;
      if (b != ref.ect_not_plain_pct.end()) {
        expect_same_bits(*cell.ect_not_plain_pct(), b->second, "F3b cell");
      }
    }
    expect_same_bits(diffs.total(row).plain_not_ect_pct().value_or(0.0),
                     ref.overall_plain_not_ect_pct, "F3a overall");
    expect_same_bits(diffs.total(row).ect_not_plain_pct().value_or(0.0),
                     ref.overall_ect_not_plain_pct, "F3b overall");
  }

  for (const auto& list : vantage_lists()) {
    for (const double threshold : {0.0, 50.0, 99.0}) {
      const auto over = count_over_threshold(diffs, list, threshold);
      const auto ref_over = reference::count_over_threshold(ref_diffs, list, threshold);
      ASSERT_EQ(over.size(), ref_over.size());
      for (std::size_t i = 0; i < over.size(); ++i) {
        EXPECT_EQ(over[i].vantage, ref_over[i].vantage);
        EXPECT_EQ(over[i].plain_not_ect_over_threshold,
                  ref_over[i].plain_not_ect_over_threshold);
        EXPECT_EQ(over[i].ect_not_plain_over_threshold,
                  ref_over[i].ect_not_plain_over_threshold);
      }
      EXPECT_EQ(persistent_failures(diffs, list, threshold),
                reference::persistent_failures(ref_diffs, list, threshold));
    }
  }

  // The rendered figures. Figures 2, 5 and Table 2 render rows either way.
  EXPECT_EQ(render_figure2a(rows), render_figure2a(ref_rows));
  EXPECT_EQ(render_figure2b(rows), render_figure2b(ref_rows));
  EXPECT_EQ(render_figure5(rows, fold.server_count()),
            render_figure5(ref_rows, fold.server_count()));
  EXPECT_EQ(render_table2(t2), render_table2(ref_t2));
  EXPECT_EQ(render_summary(summary), render_summary(ref_summary));
  std::vector<std::string> plots = {"", "Nowhere"};
  plots.insert(plots.end(), kVantages.begin(), kVantages.end());
  for (const auto& vantage : plots) {
    EXPECT_EQ(render_figure3a(diffs, vantage), reference::render_figure3(ref_diffs, vantage, true))
        << "Figure 3a from '" << vantage << "'";
    EXPECT_EQ(render_figure3b(diffs, vantage),
              reference::render_figure3(ref_diffs, vantage, false))
        << "Figure 3b from '" << vantage << "'";
  }
}

TEST(FigureFoldReference, RandomCampaignsMatch) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Shape shape{static_cast<int>(5 + seed * 3), static_cast<int>(20 + seed * 11),
                      false, false};
    expect_fold_matches_reference(random_traces(shape, seed));
  }
}

TEST(FigureFoldReference, ServersMissingOrReorderedMatch) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Shape shape{static_cast<int>(4 + seed * 2), static_cast<int>(30 + seed * 7),
                      true, seed % 2 == 0};
    expect_fold_matches_reference(random_traces(shape, 100 + seed));
  }
}

TEST(FigureFoldReference, VantageNeverReachingAServerPlainHasNoCell) {
  const auto traces = random_traces(Shape{10, 40, false, false}, 7);
  const FigureFold fold(traces);
  const auto& diffs = fold.differential();
  // Row 3 is server 3: no Figure 3a value from McQuistin home, one from
  // elsewhere, and never above threshold "from every vantage".
  ASSERT_EQ(diffs.server(3), traces[0].servers[3].server);
  EXPECT_FALSE(diffs.cell(3, "McQuistin home").plain_not_ect_pct().has_value());
  EXPECT_TRUE(diffs.cell(3, "A").plain_not_ect_pct().has_value());
  const auto persistent = persistent_failures(diffs, kVantages);
  EXPECT_EQ(std::count(persistent.begin(), persistent.end(), diffs.server(3)), 0);
  expect_fold_matches_reference(traces);
}

TEST(FigureFoldReference, OneTraceMatches) {
  expect_fold_matches_reference(random_traces(Shape{1, 50, false, false}, 3));
}

TEST(FigureFoldReference, NoTracesMatch) {
  expect_fold_matches_reference({});
  const FigureFold fold;
  EXPECT_TRUE(fold.differential().empty());
  EXPECT_EQ(fold.server_count(), 0);
}

TEST(FigureFoldReference, AddingOneByOneEqualsFoldingTheVector) {
  const auto traces = random_traces(Shape{9, 60, true, true}, 11);
  FigureFold one_by_one;
  for (const auto& trace : traces) one_by_one.add(trace);
  const FigureFold whole(traces);
  EXPECT_EQ(render_figure3a(one_by_one.differential()), render_figure3a(whole.differential()));
  EXPECT_EQ(render_table2(one_by_one.correlation()), render_table2(whole.correlation()));
  EXPECT_EQ(render_figure2a(one_by_one.per_trace()), render_figure2a(whole.per_trace()));
}

}  // namespace
}  // namespace ecnprobe::analysis
