// A measurement vantage point: one Host bundled with the client machinery
// the paper's measurement application needs -- an NTP prober, a TCP stack
// with an HTTP client, a traceroute engine, and a packet capture standing in
// for the parallel tcpdump session.
#pragma once

#include <memory>
#include <string>

#include "ecnprobe/http/http_service.hpp"
#include "ecnprobe/netsim/capture.hpp"
#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/ntp/ntp.hpp"
#include "ecnprobe/tcp/tcp.hpp"
#include "ecnprobe/traceroute/traceroute.hpp"

namespace ecnprobe::measure {

class Vantage {
public:
  Vantage(std::string name, netsim::Host& host, ntp::SimClock clock,
          tcp::TcpConfig tcp_config = {});
  ~Vantage();
  Vantage(const Vantage&) = delete;
  Vantage& operator=(const Vantage&) = delete;

  const std::string& name() const { return name_; }
  netsim::Host& host() { return host_; }
  ntp::NtpClient& ntp() { return ntp_client_; }
  tcp::TcpStack& tcp() { return tcp_stack_; }
  http::HttpGetClient& http() { return http_client_; }
  traceroute::Tracerouter& tracer();

  /// The always-on capture (tcpdump analogue). In a campaign it holds the
  /// running trace's packets only: the executor reads it nowhere, shards
  /// may inspect it in CampaignShard::collect_trace_metrics(), and it is
  /// cleared, storage and all, as the trace commits.
  netsim::PacketCapture& capture() { return capture_; }

private:
  std::string name_;
  netsim::Host& host_;
  netsim::PacketCapture capture_;
  ntp::NtpClient ntp_client_;
  tcp::TcpStack tcp_stack_;
  http::HttpGetClient http_client_;
  // Lazily constructed: the Tracerouter claims the host's ICMP handler.
  std::unique_ptr<traceroute::Tracerouter> tracer_;
};

}  // namespace ecnprobe::measure
