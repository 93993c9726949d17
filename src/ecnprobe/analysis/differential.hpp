// Figure 3: per-server differential reachability. For each server and each
// vantage point, the fraction of traces in which the server was reachable
// with one marking but not the other. Servers behind ECT-dropping firewalls
// show ~100% differential reachability from every location; transient loss
// shows up as small nonzero values.
//
// The table keeps four trace counts per (server, vantage) cell, one column
// of cells per vantage, and derives every percentage from them when read:
// 2,500 servers x 13 vantages is 520 KB of cells, however many traces are
// folded in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ecnprobe/measure/results.hpp"

namespace ecnprobe::analysis {

/// One server's trace counts from one vantage (or summed over vantages).
struct DifferentialCell {
  std::int32_t plain = 0;          ///< traces reachable plain
  std::int32_t plain_not_ect = 0;  ///< ...of which ECT(0) failed
  std::int32_t ect = 0;            ///< traces reachable with ECT(0)
  std::int32_t ect_not_plain = 0;  ///< ...of which plain failed

  /// Figure 3a: 100 * plain_not_ect / plain; nullopt when no trace reached
  /// the server plain (no denominator), which is not the same as 0%.
  std::optional<double> plain_not_ect_pct() const;
  /// Figure 3b, the converse; nullopt when no trace reached it with ECT(0).
  std::optional<double> ect_not_plain_pct() const;
};

/// Figure 3 as a table: one row per server and one column per vantage,
/// both in first-seen order.
class ServerDifferentials {
public:
  std::size_t size() const { return servers_.size(); }
  bool empty() const { return servers_.empty(); }
  wire::Ipv4Address server(std::size_t row) const { return servers_[row]; }
  const std::vector<std::string>& vantages() const { return vantages_; }

  /// Column of `vantage`, or nullopt when no trace came from it.
  std::optional<std::size_t> column(std::string_view vantage) const;
  /// The counts of `row` from `column`: all zero when no trace from that
  /// vantage listed the server.
  DifferentialCell cell(std::size_t row, std::size_t column) const;
  /// As above by vantage name; all zero for a vantage no trace came from.
  DifferentialCell cell(std::size_t row, std::string_view vantage) const;
  /// The counts of `row` summed over every vantage (the aggregate plots).
  DifferentialCell total(std::size_t row) const;

  /// Folding (FigureFold::add): opens `vantage`'s column for a trace of
  /// `servers` results, then counts each result at its position in the
  /// trace.
  std::size_t begin_trace(std::string_view vantage, std::size_t servers);
  void count(std::size_t column, std::size_t position, const measure::ServerResult& result);

private:
  std::vector<wire::Ipv4Address> servers_;
  std::unordered_map<std::uint32_t, std::uint32_t> rows_;  ///< address -> row
  std::vector<std::string> vantages_;
  /// columns_[column][row]; a column may stop short of size(), and the
  /// rows past its end hold zero counts.
  std::vector<std::vector<DifferentialCell>> columns_;
};

ServerDifferentials per_server_differential(const std::vector<measure::Trace>& traces);

/// Servers whose differential reachability exceeds `threshold_pct` from a
/// given vantage (the paper counts 9-14 per location in Figure 3a and at
/// most 3 in Figure 3b).
struct DifferentialCounts {
  std::string vantage;
  int plain_not_ect_over_threshold = 0;
  int ect_not_plain_over_threshold = 0;
};
std::vector<DifferentialCounts> count_over_threshold(
    const ServerDifferentials& differentials, const std::vector<std::string>& vantages,
    double threshold_pct = 50.0);

/// Servers above threshold from *every* vantage -- the paper's observation
/// that the same servers fail everywhere, implying drops near the
/// destination. A server no trace from some vantage reached plain is not
/// above threshold there.
std::vector<wire::Ipv4Address> persistent_failures(
    const ServerDifferentials& differentials, const std::vector<std::string>& vantages,
    double threshold_pct = 50.0);

}  // namespace ecnprobe::analysis
