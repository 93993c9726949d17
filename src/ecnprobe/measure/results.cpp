#include "ecnprobe/measure/results.hpp"

#include <istream>
#include <optional>
#include <ostream>

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/table.hpp"

namespace ecnprobe::measure {

const std::vector<std::string> kColumns = {
    "vantage",    "batch",       "trace",             "server",      "udp_plain",
    "udp_plain_tries", "udp_ect0", "udp_ect0_tries",  "tcp_conn",    "tcp_resp",
    "tcp_status", "tcpecn_conn", "tcpecn_negotiated", "tcpecn_resp", "tcpecn_status"};

void write_traces_csv(std::ostream& os, const std::vector<Trace>& traces) {
  util::CsvWriter csv(os);
  csv.write_row(kColumns);
  for (const auto& trace : traces) {
    for (const auto& s : trace.servers) {
      csv.write_row({trace.vantage, std::to_string(trace.batch),
                     std::to_string(trace.index), s.server.to_string(),
                     std::to_string(s.udp_plain.reachable ? 1 : 0),
                     std::to_string(s.udp_plain.attempts),
                     std::to_string(s.udp_ect0.reachable ? 1 : 0),
                     std::to_string(s.udp_ect0.attempts),
                     std::to_string(s.tcp_plain.connected ? 1 : 0),
                     std::to_string(s.tcp_plain.got_response ? 1 : 0),
                     std::to_string(s.tcp_plain.http_status),
                     std::to_string(s.tcp_ecn.connected ? 1 : 0),
                     std::to_string(s.tcp_ecn.ecn_negotiated ? 1 : 0),
                     std::to_string(s.tcp_ecn.got_response ? 1 : 0),
                     std::to_string(s.tcp_ecn.http_status)});
    }
  }
}

util::Expected<std::size_t> read_traces_csv(std::istream& is, const TraceSink& sink) {
  std::string line;
  if (!std::getline(is, line)) return util::make_error("csv", "empty input");
  const auto header = util::split(util::trim(line), ',');
  if (header != kColumns) {
    return util::make_error("csv", util::strf("line 1: expected the header %s,...,%s",
                                              kColumns.front().c_str(),
                                              kColumns.back().c_str()));
  }
  std::optional<Trace> current;
  std::size_t handed_over = 0;
  const auto hand_over = [&] {
    if (!current) return;
    sink(std::move(*current));
    ++handed_over;
  };
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (util::trim(line).empty()) continue;
    const auto cells = util::split(util::trim(line), ',');
    if (cells.size() != 15) {
      return util::make_error("csv", util::strf("line %zu: expected 15 fields, got %zu",
                                                line_no, cells.size()));
    }
    // Counts and codes are whole non-negative integers, flags exactly 0 or 1.
    std::size_t bad = 0;
    const auto integer = [&](std::size_t col) {
      const auto value = util::parse_integer<int>(cells[col]);
      if ((!value || *value < 0) && bad == 0) bad = col;
      return value.value_or(0);
    };
    const auto flag = [&](std::size_t col) {
      if (cells[col] != "0" && cells[col] != "1" && bad == 0) bad = col;
      return cells[col] == "1";
    };
    const std::string& vantage = cells[0];
    const int batch = integer(1);
    const int index = integer(2);
    auto addr = wire::Ipv4Address::parse(cells[3]);
    if (!addr && bad == 0) bad = 3;
    ServerResult s;
    s.server = addr.value_or({});
    s.udp_plain.reachable = flag(4);
    s.udp_plain.attempts = integer(5);
    s.udp_ect0.reachable = flag(6);
    s.udp_ect0.attempts = integer(7);
    s.tcp_plain.connected = flag(8);
    s.tcp_plain.got_response = flag(9);
    s.tcp_plain.http_status = integer(10);
    s.tcp_ecn.connected = flag(11);
    s.tcp_ecn.ecn_negotiated = flag(12);
    s.tcp_ecn.got_response = flag(13);
    s.tcp_ecn.http_status = integer(14);
    if (bad != 0) {
      return util::make_error("csv", util::strf("line %zu: bad %s '%s'", line_no,
                                                kColumns[bad].c_str(), cells[bad].c_str()));
    }
    if (!current || current->vantage != vantage || current->index != index ||
        current->batch != batch) {
      hand_over();
      current = Trace{vantage, batch, index, {}};
    }
    current->servers.push_back(s);
  }
  hand_over();
  return handed_over;
}

util::Expected<std::vector<Trace>> read_traces_csv(std::istream& is) {
  std::vector<Trace> traces;
  const auto read =
      read_traces_csv(is, [&traces](Trace trace) { traces.push_back(std::move(trace)); });
  if (!read) return read.error();
  return traces;
}

}  // namespace ecnprobe::measure
