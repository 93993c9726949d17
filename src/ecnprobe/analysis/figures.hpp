// One fold for the paper's Section 4 figures. `add` reads a trace's
// servers once and keeps what the figures need of it: one
// TraceReachability row (the counts behind Figures 2a/2b and 5 and the two
// Table 2 counts) and, for Figure 3, four counts per (server, vantage).
// Nothing else of the trace is held, so a caller can fold each trace and
// free the traces before its next phase; the fold's size grows with the
// trace count by one small row each.
//
// Every figure is computed here, from the fold: the vector-taking
// functions in reachability.hpp and differential.hpp fold their argument
// and read one result.
#pragma once

#include <utility>
#include <vector>

#include "ecnprobe/analysis/differential.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/results.hpp"

namespace ecnprobe::analysis {

class FigureFold {
public:
  FigureFold() = default;
  explicit FigureFold(const std::vector<measure::Trace>& traces);

  void add(const measure::Trace& trace);

  std::size_t trace_count() const { return per_trace_.size(); }
  /// Servers in the first trace folded; 0 before any.
  int server_count() const { return server_count_; }

  /// One row per trace, in the order folded (Figures 2a, 2b and 5).
  const std::vector<TraceReachability>& per_trace() const { return per_trace_; }
  ReachabilitySummary summary() const;
  /// One row per vantage, in first-seen order.
  std::vector<VantageReachability> per_vantage() const;
  /// Table 2, one row per vantage, in first-seen order.
  std::vector<CorrelationRow> correlation() const;
  /// Figure 3; a temporary fold hands its table over without a copy.
  const ServerDifferentials& differential() const& { return differential_; }
  ServerDifferentials differential() && { return std::move(differential_); }

private:
  std::vector<TraceReachability> per_trace_;
  int server_count_ = 0;
  ServerDifferentials differential_;
};

}  // namespace ecnprobe::analysis
