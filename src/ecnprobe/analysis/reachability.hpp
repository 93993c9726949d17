// Section 4.1 / 4.3 / 4.4 aggregations: per-trace reachability percentages
// (Figures 2a/2b), per-trace TCP + ECN-negotiation counts (Figure 5), the
// campaign-wide summary numbers quoted in the abstract (98.97%, 99.45%,
// 82.0%), and the Table 2 UDP/TCP failure correlation. Each is computed
// by analysis::FigureFold (figures.hpp); the functions here fold a vector
// of traces and read one result.
#pragma once

#include <string>
#include <vector>

#include "ecnprobe/measure/results.hpp"

namespace ecnprobe::analysis {

struct TraceReachability {
  std::string vantage;
  int batch = 1;
  int index = 0;
  int reachable_udp_plain = 0;
  int reachable_udp_ect0 = 0;
  int reachable_tcp = 0;
  int negotiated_ecn_tcp = 0;
  double pct_ect_given_plain = 0.0;  ///< Figure 2a bar
  double pct_plain_given_ect = 0.0;  ///< Figure 2b bar
  int unreachable_udp_with_ect = 0;  ///< Table 2: reachable plain, not ECT(0)
  int also_fail_tcp_ecn = 0;         ///< ...of which TCP answers without ECN
};

std::vector<TraceReachability> per_trace_reachability(
    const std::vector<measure::Trace>& traces);

struct ReachabilitySummary {
  double mean_reachable_udp_plain = 0.0;    ///< paper: 2253 of 2500
  double mean_pct_ect_given_plain = 0.0;    ///< paper: 98.97%
  double min_pct_ect_given_plain = 0.0;     ///< paper: always > 90%
  double mean_pct_plain_given_ect = 0.0;    ///< paper: 99.45%
  double mean_reachable_tcp = 0.0;          ///< paper: 1334
  double mean_negotiated_ecn_tcp = 0.0;     ///< paper: 1095
  double pct_tcp_negotiating_ecn = 0.0;     ///< paper: 82.0%
};

ReachabilitySummary summarize_reachability(const std::vector<measure::Trace>& traces);

/// Mean per-trace reachability for one vantage (Figure 2's per-location
/// variation; also exposes the McQuistin-home anomaly).
struct VantageReachability {
  std::string vantage;
  int traces = 0;
  double mean_pct_ect_given_plain = 0.0;
  double mean_reachable_udp_plain = 0.0;
};
std::vector<VantageReachability> per_vantage_reachability(
    const std::vector<measure::Trace>& traces);

/// Table 2: per location, the average number of servers reachable with
/// plain UDP but not with ECT(0) UDP, and how many of those also fail to
/// negotiate ECN over TCP.
struct CorrelationRow {
  std::string vantage;
  double avg_unreachable_udp_with_ect = 0.0;
  double avg_also_fail_tcp_ecn = 0.0;
};
std::vector<CorrelationRow> correlation_table(const std::vector<measure::Trace>& traces);

}  // namespace ecnprobe::analysis
