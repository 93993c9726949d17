#include "ecnprobe/analysis/differential.hpp"

#include <algorithm>

#include "ecnprobe/analysis/figures.hpp"

namespace ecnprobe::analysis {

std::optional<double> DifferentialCell::plain_not_ect_pct() const {
  if (plain == 0) return std::nullopt;
  return 100.0 * plain_not_ect / plain;
}

std::optional<double> DifferentialCell::ect_not_plain_pct() const {
  if (ect == 0) return std::nullopt;
  return 100.0 * ect_not_plain / ect;
}

std::optional<std::size_t> ServerDifferentials::column(std::string_view vantage) const {
  const auto it = std::find(vantages_.begin(), vantages_.end(), vantage);
  if (it == vantages_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - vantages_.begin());
}

DifferentialCell ServerDifferentials::cell(std::size_t row, std::size_t column) const {
  const auto& cells = columns_[column];
  return row < cells.size() ? cells[row] : DifferentialCell{};
}

DifferentialCell ServerDifferentials::cell(std::size_t row, std::string_view vantage) const {
  const auto c = column(vantage);
  return c ? cell(row, *c) : DifferentialCell{};
}

DifferentialCell ServerDifferentials::total(std::size_t row) const {
  DifferentialCell sum;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const auto one = cell(row, c);
    sum.plain += one.plain;
    sum.plain_not_ect += one.plain_not_ect;
    sum.ect += one.ect;
    sum.ect_not_plain += one.ect_not_plain;
  }
  return sum;
}

std::size_t ServerDifferentials::begin_trace(std::string_view vantage, std::size_t servers) {
  auto c = column(vantage);
  if (!c) {
    c = vantages_.size();
    vantages_.emplace_back(vantage);
    columns_.emplace_back();
  }
  columns_[*c].reserve(servers);
  return *c;
}

void ServerDifferentials::count(std::size_t column, std::size_t position,
                                const measure::ServerResult& result) {
  // The traces of one campaign list the servers in one order, so a
  // result's position in its trace is nearly always its row.
  std::size_t row = position;
  if (row >= servers_.size() || servers_[row] != result.server) {
    const auto [it, added] = rows_.try_emplace(result.server.value(),
                                               static_cast<std::uint32_t>(servers_.size()));
    if (added) servers_.push_back(result.server);
    row = it->second;
  }
  auto& cells = columns_[column];
  if (row >= cells.size()) cells.resize(servers_.size());
  auto& cell = cells[row];
  const bool plain = result.udp_plain.reachable;
  const bool ect = result.udp_ect0.reachable;
  if (plain) {
    ++cell.plain;
    if (!ect) ++cell.plain_not_ect;
  }
  if (ect) {
    ++cell.ect;
    if (!plain) ++cell.ect_not_plain;
  }
}

ServerDifferentials per_server_differential(const std::vector<measure::Trace>& traces) {
  return FigureFold(traces).differential();
}

std::vector<DifferentialCounts> count_over_threshold(
    const ServerDifferentials& differentials, const std::vector<std::string>& vantages,
    double threshold_pct) {
  std::vector<DifferentialCounts> out;
  for (const auto& vantage : vantages) {
    DifferentialCounts counts;
    counts.vantage = vantage;
    if (const auto column = differentials.column(vantage)) {
      for (std::size_t row = 0; row < differentials.size(); ++row) {
        const auto cell = differentials.cell(row, *column);
        const auto a = cell.plain_not_ect_pct();
        if (a && *a > threshold_pct) ++counts.plain_not_ect_over_threshold;
        const auto b = cell.ect_not_plain_pct();
        if (b && *b > threshold_pct) ++counts.ect_not_plain_over_threshold;
      }
    }
    out.push_back(std::move(counts));
  }
  return out;
}

std::vector<wire::Ipv4Address> persistent_failures(
    const ServerDifferentials& differentials, const std::vector<std::string>& vantages,
    double threshold_pct) {
  std::vector<std::optional<std::size_t>> columns;
  columns.reserve(vantages.size());
  for (const auto& vantage : vantages) columns.push_back(differentials.column(vantage));
  std::vector<wire::Ipv4Address> out;
  for (std::size_t row = 0; row < differentials.size(); ++row) {
    const bool everywhere = std::all_of(
        columns.begin(), columns.end(), [&](const std::optional<std::size_t>& column) {
          if (!column) return false;
          const auto pct = differentials.cell(row, *column).plain_not_ect_pct();
          return pct && *pct > threshold_pct;
        });
    if (everywhere) out.push_back(differentials.server(row));
  }
  return out;
}

}  // namespace ecnprobe::analysis
