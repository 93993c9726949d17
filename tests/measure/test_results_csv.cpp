#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/results.hpp"

namespace ecnprobe::measure {
namespace {

const std::string kHeader =
    "vantage,batch,trace,server,udp_plain,udp_plain_tries,udp_ect0,udp_ect0_tries,tcp_conn,"
    "tcp_resp,tcp_status,tcpecn_conn,tcpecn_negotiated,tcpecn_resp,tcpecn_status";

Trace make_trace(const std::string& vantage, int batch, int index) {
  Trace trace;
  trace.vantage = vantage;
  trace.batch = batch;
  trace.index = index;
  for (int i = 0; i < 4; ++i) {
    ServerResult s;
    s.server = wire::Ipv4Address(11, 0, 0, static_cast<std::uint8_t>(i + 1));
    s.udp_plain.reachable = true;
    s.udp_plain.attempts = 1;
    s.udp_ect0.reachable = i != 2;  // one server ECT-unreachable
    s.udp_ect0.attempts = i != 2 ? 1 : 5;
    s.tcp_plain.connected = i < 3;
    s.tcp_plain.got_response = i < 3;
    s.tcp_plain.http_status = i < 3 ? 302 : 0;
    s.tcp_ecn.connected = i < 3;
    s.tcp_ecn.ecn_negotiated = i < 2;
    s.tcp_ecn.got_response = i < 3;
    s.tcp_ecn.http_status = i < 3 ? 302 : 0;
    trace.servers.push_back(s);
  }
  return trace;
}

TEST(TraceSummaries, CountsMatchConstruction) {
  const auto trace = analysis::per_trace_reachability({make_trace("UGla wired", 1, 0)})[0];
  EXPECT_EQ(trace.reachable_udp_plain, 4);
  EXPECT_EQ(trace.reachable_udp_ect0, 3);
  EXPECT_EQ(trace.reachable_tcp, 3);
  EXPECT_EQ(trace.negotiated_ecn_tcp, 2);
  EXPECT_DOUBLE_EQ(trace.pct_ect_given_plain, 75.0);
  EXPECT_DOUBLE_EQ(trace.pct_plain_given_ect, 100.0);
  EXPECT_EQ(trace.unreachable_udp_with_ect, 1);
}

TEST(TraceSummaries, EmptyTraceSafe) {
  const auto trace = analysis::per_trace_reachability({Trace{}})[0];
  EXPECT_EQ(trace.pct_ect_given_plain, 0.0);
  EXPECT_EQ(trace.pct_plain_given_ect, 0.0);
}

TEST(ResultsCsv, RoundTripPreservesEverything) {
  std::vector<Trace> traces = {make_trace("Perkins home", 1, 0),
                               make_trace("EC2 Tok", 2, 1)};
  std::ostringstream os;
  write_traces_csv(os, traces);

  std::istringstream is(os.str());
  const auto loaded = read_traces_csv(is);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->size(), 2u);
  const auto& t0 = (*loaded)[0];
  EXPECT_EQ(t0.vantage, "Perkins home");
  EXPECT_EQ(t0.batch, 1);
  EXPECT_EQ(t0.index, 0);
  ASSERT_EQ(t0.servers.size(), 4u);
  EXPECT_EQ(t0.servers[2].udp_ect0.reachable, false);
  EXPECT_EQ(t0.servers[2].udp_ect0.attempts, 5);
  EXPECT_EQ(t0.servers[0].tcp_ecn.ecn_negotiated, true);
  EXPECT_EQ(t0.servers[3].tcp_plain.http_status, 0);
  // Summary functions agree after the round trip.
  const auto rows = analysis::per_trace_reachability(*loaded);
  const auto written = analysis::per_trace_reachability(traces);
  EXPECT_EQ(rows[0].reachable_udp_plain, written[0].reachable_udp_plain);
  EXPECT_EQ(rows[0].negotiated_ecn_tcp, written[0].negotiated_ecn_tcp);
}

TEST(ResultsCsv, RejectsEmptyAndMalformed) {
  std::istringstream empty("");
  EXPECT_FALSE(read_traces_csv(empty));

  std::istringstream bad_fields(kHeader + "\na,b,c\n");
  EXPECT_FALSE(read_traces_csv(bad_fields));

  std::istringstream bad_addr(kHeader + "\nv,1,0,notanip,1,1,1,1,0,0,0,0,0,0,0\n");
  EXPECT_FALSE(read_traces_csv(bad_addr));

  // Without its header the first row would be skipped as one, and the
  // figures would silently lose a server.
  std::istringstream headerless("v,1,0,11.0.0.1,1,1,1,1,1,1,302,1,1,1,302\n");
  const auto loaded = read_traces_csv(headerless);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error().message, "line 1: expected the header vantage,...,tcpecn_status");
}

TEST(ResultsCsv, RefusesMalformedCellsNamingTheColumn) {
  const std::vector<std::string> row = {"v", "1", "0", "11.0.0.1", "1", "1", "1", "1",
                                        "1", "1", "302", "1", "1", "1", "302"};
  const auto read_row = [](const std::vector<std::string>& cells) {
    std::string line;
    for (const auto& cell : cells) line += (line.empty() ? "" : ",") + cell;
    std::istringstream is(kHeader + "\n" + line + "\n");
    return read_traces_csv(is);
  };
  ASSERT_TRUE(read_row(row));
  // atoi read "banana" as 0 and "2x" as 2, and any flag but "1" as false.
  const struct {
    std::size_t column;
    const char* cell;
    const char* message;
  } kBad[] = {
      {1, "banana", "line 2: bad batch 'banana'"},
      {2, "-1", "line 2: bad trace '-1'"},
      {3, "notanip", "line 2: bad server 'notanip'"},
      {4, "yes", "line 2: bad udp_plain 'yes'"},
      {5, "2x", "line 2: bad udp_plain_tries '2x'"},
      {7, "99999999999999999999", "line 2: bad udp_ect0_tries '99999999999999999999'"},
      {9, "", "line 2: bad tcp_resp ''"},
      {10, "+302", "line 2: bad tcp_status '+302'"},
      {12, "2", "line 2: bad tcpecn_negotiated '2'"},
      {13, "01", "line 2: bad tcpecn_resp '01'"},
      {14, "0x12e", "line 2: bad tcpecn_status '0x12e'"},
  };
  for (const auto& bad : kBad) {
    auto cells = row;
    cells[bad.column] = bad.cell;
    const auto loaded = read_row(cells);
    ASSERT_FALSE(loaded) << bad.message;
    EXPECT_EQ(loaded.error().message, bad.message);
  }
}

TEST(ResultsCsv, SkipsBlankLines) {
  std::vector<Trace> traces = {make_trace("X", 1, 0)};
  std::ostringstream os;
  write_traces_csv(os, traces);
  std::istringstream is(os.str() + "\n\n");
  const auto loaded = read_traces_csv(is);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->size(), 1u);
}

}  // namespace
}  // namespace ecnprobe::measure
