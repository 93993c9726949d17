#include "ecnprobe/analysis/figures.hpp"

#include <algorithm>

#include "ecnprobe/util/stats.hpp"

namespace ecnprobe::analysis {

namespace {

/// Per-vantage means over the trace rows, vantages in first-seen order.
struct VantageStats {
  std::string vantage;
  util::RunningStats pct_ect_given_plain;
  util::RunningStats reachable_udp_plain;
  util::RunningStats unreachable_udp_with_ect;
  util::RunningStats also_fail_tcp_ecn;
};

std::vector<VantageStats> by_vantage(const std::vector<TraceReachability>& rows) {
  std::vector<VantageStats> out;
  for (const auto& row : rows) {
    auto it = std::find_if(out.begin(), out.end(), [&](const VantageStats& v) {
      return v.vantage == row.vantage;
    });
    if (it == out.end()) {
      out.push_back(VantageStats{row.vantage, {}, {}, {}, {}});
      it = out.end() - 1;
    }
    it->pct_ect_given_plain.add(row.pct_ect_given_plain);
    it->reachable_udp_plain.add(row.reachable_udp_plain);
    it->unreachable_udp_with_ect.add(row.unreachable_udp_with_ect);
    it->also_fail_tcp_ecn.add(row.also_fail_tcp_ecn);
  }
  return out;
}

}  // namespace

FigureFold::FigureFold(const std::vector<measure::Trace>& traces) {
  per_trace_.reserve(traces.size());
  for (const auto& trace : traces) add(trace);
}

void FigureFold::add(const measure::Trace& trace) {
  if (per_trace_.empty()) server_count_ = static_cast<int>(trace.servers.size());
  TraceReachability row;
  row.vantage = trace.vantage;
  row.batch = trace.batch;
  row.index = trace.index;
  int both = 0;  // reachable plain and with ECT(0)
  const auto column = differential_.begin_trace(trace.vantage, trace.servers.size());
  for (std::size_t i = 0; i < trace.servers.size(); ++i) {
    const auto& s = trace.servers[i];
    const bool plain = s.udp_plain.reachable;
    const bool ect = s.udp_ect0.reachable;
    const bool negotiated = s.tcp_ecn.connected && s.tcp_ecn.ecn_negotiated;
    row.reachable_udp_plain += plain ? 1 : 0;
    row.reachable_udp_ect0 += ect ? 1 : 0;
    both += (plain && ect) ? 1 : 0;
    row.reachable_tcp += s.tcp_plain.got_response ? 1 : 0;
    row.negotiated_ecn_tcp += negotiated ? 1 : 0;
    if (plain && !ect) {
      ++row.unreachable_udp_with_ect;
      // "Fail to negotiate ECN with TCP": the web server responds to TCP
      // but does not return an ECN-setup SYN-ACK.
      if (s.tcp_plain.got_response && !negotiated) ++row.also_fail_tcp_ecn;
    }
    differential_.count(column, i, s);
  }
  row.pct_ect_given_plain =
      row.reachable_udp_plain == 0 ? 0.0 : 100.0 * both / row.reachable_udp_plain;
  row.pct_plain_given_ect =
      row.reachable_udp_ect0 == 0 ? 0.0 : 100.0 * both / row.reachable_udp_ect0;
  per_trace_.push_back(std::move(row));
}

ReachabilitySummary FigureFold::summary() const {
  util::RunningStats plain;
  util::RunningStats pct_ect;
  util::RunningStats pct_plain;
  util::RunningStats tcp;
  util::RunningStats tcp_ecn;
  for (const auto& row : per_trace_) {
    plain.add(row.reachable_udp_plain);
    pct_ect.add(row.pct_ect_given_plain);
    pct_plain.add(row.pct_plain_given_ect);
    tcp.add(row.reachable_tcp);
    tcp_ecn.add(row.negotiated_ecn_tcp);
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

std::vector<VantageReachability> FigureFold::per_vantage() const {
  std::vector<VantageReachability> out;
  for (const auto& v : by_vantage(per_trace_)) {
    VantageReachability r;
    r.vantage = v.vantage;
    r.traces = static_cast<int>(v.pct_ect_given_plain.count());
    r.mean_pct_ect_given_plain = v.pct_ect_given_plain.mean();
    r.mean_reachable_udp_plain = v.reachable_udp_plain.mean();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<CorrelationRow> FigureFold::correlation() const {
  std::vector<CorrelationRow> out;
  for (const auto& v : by_vantage(per_trace_)) {
    out.push_back(CorrelationRow{v.vantage, v.unreachable_udp_with_ect.mean(),
                                 v.also_fail_tcp_ecn.mean()});
  }
  return out;
}

}  // namespace ecnprobe::analysis
