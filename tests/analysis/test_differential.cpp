#include "ecnprobe/analysis/differential.hpp"

#include <gtest/gtest.h>

namespace ecnprobe::analysis {
namespace {

using measure::ServerResult;
using measure::Trace;

ServerResult server(std::uint8_t id, bool plain, bool ect) {
  ServerResult s;
  s.server = wire::Ipv4Address(11, 0, 0, id);
  s.udp_plain.reachable = plain;
  s.udp_ect0.reachable = ect;
  return s;
}

Trace trace(const std::string& vantage, int index,
            std::vector<ServerResult> servers) {
  Trace t;
  t.vantage = vantage;
  t.index = index;
  t.servers = std::move(servers);
  return t;
}

TEST(Differential, FirewalledServerShows100PercentEverywhere) {
  // Server 1 is always plain-reachable but never ECT-reachable, from both
  // vantages; server 2 is healthy.
  std::vector<Trace> traces;
  for (const std::string vantage : {"A", "B"}) {
    for (int i = 0; i < 3; ++i) {
      traces.push_back(
          trace(vantage, i, {server(1, true, false), server(2, true, true)}));
    }
  }
  const auto diffs = per_server_differential(traces);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_DOUBLE_EQ(diffs.cell(0, "A").plain_not_ect_pct().value(), 100.0);
  EXPECT_DOUBLE_EQ(diffs.cell(0, "B").plain_not_ect_pct().value(), 100.0);
  EXPECT_DOUBLE_EQ(diffs.total(0).plain_not_ect_pct().value_or(0.0), 100.0);
  EXPECT_DOUBLE_EQ(diffs.cell(1, "A").plain_not_ect_pct().value(), 0.0);

  const auto persistent = persistent_failures(diffs, {"A", "B"});
  ASSERT_EQ(persistent.size(), 1u);
  EXPECT_EQ(persistent[0], wire::Ipv4Address(11, 0, 0, 1));
}

TEST(Differential, TransientFailureGivesPartialPercentage) {
  std::vector<Trace> traces;
  traces.push_back(trace("A", 0, {server(1, true, true)}));
  traces.push_back(trace("A", 1, {server(1, true, false)}));
  traces.push_back(trace("A", 2, {server(1, true, true)}));
  traces.push_back(trace("A", 3, {server(1, true, true)}));
  const auto diffs = per_server_differential(traces);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(diffs.cell(0, "A").plain_not_ect_pct().value(), 25.0);
}

TEST(Differential, ConverseDirectionTracked) {
  std::vector<Trace> traces;
  traces.push_back(trace("A", 0, {server(1, false, true)}));
  traces.push_back(trace("A", 1, {server(1, false, true)}));
  const auto diffs = per_server_differential(traces);
  ASSERT_EQ(diffs.size(), 1u);
  // Never plain-reachable: no denominator for Figure 3a from any vantage...
  for (const auto& vantage : diffs.vantages()) {
    EXPECT_FALSE(diffs.cell(0, vantage).plain_not_ect_pct().has_value()) << vantage;
  }
  // ...but 100% in the Figure 3b direction.
  EXPECT_DOUBLE_EQ(diffs.cell(0, "A").ect_not_plain_pct().value(), 100.0);
}

TEST(Differential, ThresholdCountsPerVantage) {
  std::vector<Trace> traces;
  // Vantage A: servers 1 and 2 fail ECT; vantage B: only server 1.
  for (int i = 0; i < 2; ++i) {
    traces.push_back(trace("A", i,
                           {server(1, true, false), server(2, true, false),
                            server(3, true, true)}));
    traces.push_back(trace("B", 10 + i,
                           {server(1, true, false), server(2, true, true),
                            server(3, true, true)}));
  }
  const auto diffs = per_server_differential(traces);
  const auto counts = count_over_threshold(diffs, {"A", "B"}, 50.0);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].vantage, "A");
  EXPECT_EQ(counts[0].plain_not_ect_over_threshold, 2);
  EXPECT_EQ(counts[1].plain_not_ect_over_threshold, 1);
  EXPECT_EQ(counts[0].ect_not_plain_over_threshold, 0);

  const auto persistent = persistent_failures(diffs, {"A", "B"}, 50.0);
  ASSERT_EQ(persistent.size(), 1u);  // only server 1 fails from everywhere
}

TEST(Differential, EmptyTracesEmptyResult) {
  EXPECT_TRUE(per_server_differential({}).empty());
}

}  // namespace
}  // namespace ecnprobe::analysis
