#include "ecnprobe/analysis/reachability.hpp"

#include "ecnprobe/analysis/figures.hpp"

namespace ecnprobe::analysis {

std::vector<TraceReachability> per_trace_reachability(
    const std::vector<measure::Trace>& traces) {
  return FigureFold(traces).per_trace();
}

ReachabilitySummary summarize_reachability(const std::vector<measure::Trace>& traces) {
  return FigureFold(traces).summary();
}

std::vector<VantageReachability> per_vantage_reachability(
    const std::vector<measure::Trace>& traces) {
  return FigureFold(traces).per_vantage();
}

std::vector<CorrelationRow> correlation_table(const std::vector<measure::Trace>& traces) {
  return FigureFold(traces).correlation();
}

}  // namespace ecnprobe::analysis
