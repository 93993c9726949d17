// ECN-revealing traceroute (Section 4.2). Sends TTL-limited, ECT(0)-marked
// UDP probes toward each server and compares the IP header quoted in the
// returning ICMP Time-Exceeded message against the header sent. A hop whose
// quotation still carries ECT(0) passed the mark; a hop quoting not-ECT saw
// the mark stripped somewhere upstream. The same technique as Bauer et al.,
// tracebox, and Malone & Luckie's ICMP-quotation analysis.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ecnprobe/netsim/host.hpp"

namespace ecnprobe::traceroute {

struct TracerouteOptions {
  wire::Ecn ecn = wire::Ecn::Ect0;
  int max_ttl = 30;
  int probes_per_hop = 2;  ///< attempts before declaring a hop silent
  util::SimDuration timeout = util::SimDuration::seconds(1);
  int stop_after_silent = 6;  ///< consecutive silent hops before giving up
  std::uint16_t base_dst_port = 33434;  ///< classic traceroute port range

  /// Throws std::invalid_argument on out-of-range fields; Tracerouter::trace
  /// validates every options instance it is handed.
  void validate() const;
};

struct HopRecord {
  int ttl = 0;
  bool responded = false;
  wire::Ipv4Address responder;        ///< ICMP source (the router)
  wire::Ecn sent_ecn = wire::Ecn::NotEct;
  wire::Ecn quoted_ecn = wire::Ecn::NotEct;  ///< ECN field in the quotation
  /// False when the quote was cut before the ToS/ECN octet: the hop
  /// responded but its ECN field is unobserved -- it must not be
  /// classified as bleached (or intact) on this evidence.
  bool ecn_known = true;
  bool quote_truncated = false;  ///< quote shorter than the full inner header
  /// True when the quoted ECN field was observed and equals what we sent.
  bool ecn_intact() const { return responded && ecn_known && quoted_ecn == sent_ecn; }
};

struct PathRecord {
  wire::Ipv4Address destination;
  std::vector<HopRecord> hops;
  bool reached_destination = false;  ///< ICMP Port-Unreachable from the target

  int responding_hops() const;
};

/// Runs traceroutes from one Host. Owns the host's ICMP protocol handler;
/// create at most one per host. Multiple traces may run concurrently --
/// probes are matched back by the UDP source port quoted in the ICMP error.
class Tracerouter {
public:
  using Handler = std::function<void(const PathRecord&)>;

  explicit Tracerouter(netsim::Host& host);
  ~Tracerouter();
  Tracerouter(const Tracerouter&) = delete;
  Tracerouter& operator=(const Tracerouter&) = delete;

  void trace(wire::Ipv4Address destination, const TracerouteOptions& options,
             Handler handler);

private:
  struct Trace;
  void on_icmp(const wire::Datagram& dgram);
  void send_probe(const std::shared_ptr<Trace>& trace);
  void hop_done(const std::shared_ptr<Trace>& trace, HopRecord hop);
  void finish(const std::shared_ptr<Trace>& trace);

  // One outstanding probe: the running trace it belongs to, and the UDP
  // source port its ICMP quotation is matched by.
  struct Pending {
    std::uint16_t src_port = 0;
    std::shared_ptr<Trace> trace;
  };
  std::vector<Pending>::iterator find_pending(std::uint16_t src_port);

  netsim::Host& host_;
  std::uint16_t next_src_port_ = 44000;
  // At most one probe per running trace, so a flat vector searched by port
  // stays tiny and, once grown, allocates nothing per probe.
  std::vector<Pending> pending_;
};

}  // namespace ecnprobe::traceroute
