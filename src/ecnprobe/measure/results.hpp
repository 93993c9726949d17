// Result records for the measurement campaign: one ServerResult per target
// per trace (four probes: UDP, UDP+ECT(0), TCP, TCP+ECN), one Trace per
// vantage-point pass over the full server list, and traceroute observations.
// CSV import/export mirrors the paper's published dataset so analyses can be
// re-run offline.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ecnprobe/traceroute/traceroute.hpp"
#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/util/time.hpp"
#include "ecnprobe/wire/ipv4.hpp"

namespace ecnprobe::measure {

struct UdpProbeOutcome {
  bool reachable = false;
  int attempts = 0;   ///< requests sent (<=5)
  double rtt_ms = 0;  ///< of the successful attempt
};

struct TcpProbeOutcome {
  bool connected = false;       ///< handshake completed
  bool ecn_negotiated = false;  ///< ECN-setup SYN-ACK received
  bool got_response = false;    ///< HTTP response parsed
  int http_status = 0;
};

struct ServerResult {
  wire::Ipv4Address server;
  UdpProbeOutcome udp_plain;  ///< not-ECT marked NTP request
  UdpProbeOutcome udp_ect0;   ///< ECT(0) marked NTP request
  TcpProbeOutcome tcp_plain;  ///< HTTP GET, normal SYN
  TcpProbeOutcome tcp_ecn;    ///< HTTP GET, ECN-setup SYN
};

struct Trace {
  std::string vantage;
  int batch = 1;  ///< 1 = Apr/May 2015, 2 = Jul/Aug 2015
  int index = 0;  ///< trace sequence number within the campaign
  std::vector<ServerResult> servers;
};

/// One repetition of a traceroute from a vantage point to a server.
struct TracerouteObservation {
  std::string vantage;
  int repetition = 0;
  traceroute::PathRecord path;
};

// -- CSV round-trip ---------------------------------------------------------

/// Header: vantage,batch,trace,server,udp_plain,udp_plain_tries,udp_ect0,
/// udp_ect0_tries,tcp_conn,tcp_resp,tcp_status,tcpecn_conn,tcpecn_negotiated,
/// tcpecn_resp,tcpecn_status
void write_traces_csv(std::ostream& os, const std::vector<Trace>& traces);
util::Expected<std::vector<Trace>> read_traces_csv(std::istream& is);

}  // namespace ecnprobe::measure
