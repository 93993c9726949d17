// Terminal renderings of every figure and table in the paper, built from
// the analysis results. Each bench binary prints one of these next to the
// paper's reference numbers.
#pragma once

#include <string>
#include <vector>

#include "ecnprobe/analysis/differential.hpp"
#include "ecnprobe/analysis/geosummary.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/analysis/trend.hpp"

namespace ecnprobe::analysis {

/// Table 1: region -> server count.
std::string render_table1(const GeoSummary& summary);

/// Figure 1: ASCII world map of server locations.
std::string render_figure1(const GeoSummary& summary, int width = 96, int height = 28);

/// Figures 2a/2b: one bar per trace, y-range 90-100%.
std::string render_figure2a(const std::vector<TraceReachability>& traces);
std::string render_figure2b(const std::vector<TraceReachability>& traces);

/// Figures 3a/3b: per-server differential-reachability spike plots for one
/// vantage (or the cross-vantage aggregate when `vantage` is empty). A
/// server no trace from the vantage reached draws as 0%.
std::string render_figure3a(const ServerDifferentials& differentials,
                            const std::string& vantage = {});
std::string render_figure3b(const ServerDifferentials& differentials,
                            const std::string& vantage = {});

/// Figure 4: headline hop statistics plus a sample of rendered paths
/// ('+' = ECN intact at hop, '-' = stripped, '.' = silent hop).
std::string render_figure4(const HopAnalysis& analysis,
                           const std::vector<measure::TracerouteObservation>& sample_paths,
                           std::size_t max_paths = 12);

/// Figure 5: per-trace TCP reachability and ECN negotiation counts.
std::string render_figure5(const std::vector<TraceReachability>& traces,
                           int server_count);

/// Figure 6: adoption time series with logistic fit.
std::string render_figure6(const std::vector<TrendPoint>& points);

/// Table 2: per-location UDP-vs-TCP ECN failure correlation.
std::string render_table2(const std::vector<CorrelationRow>& rows);

/// Abstract-level summary paragraph with the headline numbers.
std::string render_summary(const ReachabilitySummary& summary);

}  // namespace ecnprobe::analysis
