// The real-network prober: the same experiment the simulator runs, pointed
// at an actual server. Uses an ordinary UDP socket with IP_TOS to set the
// ECN codepoint (no privileges needed); the crafted ECN-setup-SYN TCP probe
// needs CAP_NET_RAW and is attempted only when available.
//
//   $ ./live_probe 129.215.42.240          # probe one NTP server
//   $ ./live_probe pool-member-ip [port]
//
// The port is a whole number in [1, 65535]. A bad address or port exits 2
// with the usage text before any socket is opened.
//
// Note: sends real packets. Aim it only at servers you are allowed to probe
// (public NTP pool servers answer NTP by design).
#include <cstdio>

#include "ecnprobe/live/live_probe.hpp"
#include "ecnprobe/live/live_socket.hpp"
#include "ecnprobe/util/strings.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: live_probe <server-ipv4> [http-port]\n"
                       "  http-port: 1 to 65535 (default 80)\n"
                       "probes NTP reachability with not-ECT and ECT(0) marked UDP,\n"
                       "then (with CAP_NET_RAW) TCP ECN negotiation.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  if (argc < 2 || argc > 3) return usage();
  const auto server = wire::Ipv4Address::parse(argv[1]);
  if (!server) {
    std::fprintf(stderr, "live_probe: bad IPv4 address '%s'\n", argv[1]);
    return usage();
  }
  const auto http_port =
      argc == 3 ? util::parse_integer<std::uint16_t>(argv[2]) : std::optional<std::uint16_t>(80);
  if (!http_port || *http_port == 0) {
    std::fprintf(stderr, "live_probe: bad http-port '%s'\n", argv[2]);
    return usage();
  }

  std::printf("probing %s (paper methodology: 5 requests, 1s timeout each)\n\n",
              server->to_string().c_str());

  for (const auto ecn : {wire::Ecn::NotEct, wire::Ecn::Ect0}) {
    std::printf("NTP over %-8s UDP: ", std::string(wire::to_string(ecn)).c_str());
    std::fflush(stdout);
    const auto result = live::live_ntp_probe(*server, ecn);
    if (!result.error.empty()) {
      std::printf("error (%s)\n", result.error.c_str());
    } else if (result.reachable) {
      std::printf("reachable, rtt %.1f ms, %d attempt%s, response %s\n", result.rtt_ms,
                  result.attempts, result.attempts == 1 ? "" : "s",
                  std::string(wire::to_string(result.response_ecn)).c_str());
    } else {
      std::printf("unreachable after %d attempts\n", result.attempts);
    }
  }

  std::printf("\nTCP ECN negotiation:   ");
  std::fflush(stdout);
  if (!live::has_raw_capability()) {
    std::printf("skipped (needs CAP_NET_RAW for a crafted ECN-setup SYN)\n");
    return 0;
  }
  const auto tcp = live::live_tcp_ecn_probe(*server, *http_port);
  if (!tcp.error.empty()) {
    std::printf("error (%s)\n", tcp.error.c_str());
  } else if (!tcp.syn_acked) {
    std::printf("no SYN-ACK (closed port or filtered)\n");
  } else {
    std::printf("SYN-ACK received; ECN %s\n",
                tcp.ecn_negotiated ? "negotiated (ECN-setup SYN-ACK)" : "refused");
  }
  return 0;
}
