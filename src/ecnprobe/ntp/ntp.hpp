// The NTP measurement client and the pool server service. The client is the
// paper's probe: an NTP mode-3 request in a UDP packet whose ECN field is
// the experiment variable, retransmitted up to five times with a one-second
// timeout (Section 3). The server mimics a pool host: answers mode-3
// requests with mode 4 while online; a host that left the pool or is down
// simply stays silent.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/wire/ntp.hpp"

namespace ecnprobe::ntp {

/// Maps simulated time onto the NTP timescale. The epoch anchors the
/// campaign at its real-world date (April 2015) so timestamps are plausible.
class SimClock {
public:
  /// `unix_base_seconds`: wall-clock time at simulation t=0. When
  /// `epoch_origin_ns` is given it points at an externally updated sim-time
  /// origin (World resets it at each trace-epoch boundary): wall time is
  /// then measured from the origin, not from t=0. That keeps the NTP
  /// timestamps baked into wire bytes a pure function of the trace -- the
  /// absolute sim clock depends on which traces an executor ran earlier, and
  /// would otherwise leak execution history into recorded packets.
  explicit SimClock(std::int64_t unix_base_seconds = 1'428'883'200,  // 2015-04-13
                    const std::int64_t* epoch_origin_ns = nullptr)
      : base_ns_(unix_base_seconds * 1'000'000'000), epoch_origin_ns_(epoch_origin_ns) {}

  wire::NtpTimestamp at(util::SimTime t) const {
    const std::int64_t origin = epoch_origin_ns_ != nullptr ? *epoch_origin_ns_ : 0;
    return wire::NtpTimestamp::from_unix_nanos(base_ns_ + t.count_nanos() - origin);
  }

private:
  std::int64_t base_ns_;
  const std::int64_t* epoch_origin_ns_ = nullptr;
};

struct NtpQueryOptions {
  wire::Ecn ecn = wire::Ecn::NotEct;  ///< the experiment variable
  int max_attempts = 5;               ///< paper: five requests, then give up
  util::SimDuration timeout = util::SimDuration::seconds(1);
  std::uint8_t ttl = wire::Ipv4Header::kDefaultTtl;
  /// Per-attempt timeout overrides (sched::build_retry_schedule output):
  /// attempt i waits timeout_schedule[min(i, size-1)]. Empty (the default,
  /// and the paper's behaviour) falls back to the fixed `timeout` -- the
  /// client then takes exactly the legacy code path.
  std::vector<util::SimDuration> timeout_schedule;
  /// Hedged duplicate: if an attempt has no response after this long, its
  /// request is retransmitted once without resetting the attempt's timer
  /// (tail-loss insurance). Zero (default) disables hedging; enabling it
  /// records sched_hedges_total / sched_hedge_wins_total.
  util::SimDuration hedge_delay{};
};

struct NtpQueryResult {
  bool success = false;
  int attempts = 0;                    ///< requests actually sent
  util::SimDuration rtt;               ///< for the successful attempt
  wire::Ecn response_ecn = wire::Ecn::NotEct;  ///< ECN field on the response
  std::uint8_t server_stratum = 0;
};

/// One-shot NTP prober. Each query owns an ephemeral UDP socket, so
/// concurrent queries to many servers are independent.
class NtpClient {
public:
  using Handler = std::function<void(const NtpQueryResult&)>;

  NtpClient(netsim::Host& host, SimClock clock) : host_(host), clock_(clock) {}

  /// Probes `server`; the handler fires exactly once (success or after
  /// max_attempts timeouts).
  void query(wire::Ipv4Address server, const NtpQueryOptions& options, Handler handler);

private:
  struct Pending;
  netsim::Host& host_;
  SimClock clock_;
  /// sched_hedges_total and sched_hedge_wins_total in the host network's
  /// registry, resolved on first use. A query's events run only while its
  /// client is alive, as they do while its host is.
  obs::Handles<obs::Counter, 2> hedge_counters_;
};

/// Pool-server behaviour on a Host: answers NTP while online.
class NtpServerService {
public:
  struct Params {
    std::uint8_t stratum = 2;
    /// Probability of answering any one request. Below 1.0 this models the
    /// rate limiting (e.g. ntpd's kiss-of-death throttling) that makes a
    /// minority of pool servers transiently unreachable -- the paper's
    /// "packet loss unrelated to ECN".
    double response_prob = 1.0;
    /// Echo the request's ECN codepoint on the response. Real NTP servers
    /// do not (responses are not-ECT, which is why the paper "cannot probe
    /// the return path"); enabling this turns the server into the modified
    /// responder that experiment needs.
    bool reflect_ecn = false;
    /// Flaky-responder faults (chaos::FaultPlan): probability a response
    /// goes out truncated below the 48-byte NTP minimum, or with its
    /// leap/version/mode octet scrambled. Either way the client rejects
    /// the reply and retries -- the server looks lossy, not broken.
    double short_reply_prob = 0.0;
    double malformed_reply_prob = 0.0;
  };

  NtpServerService(netsim::Host& host, SimClock clock, Params params);
  NtpServerService(netsim::Host& host, SimClock clock, std::uint8_t stratum)
      : NtpServerService(host, clock, Params{stratum, 1.0}) {}

  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  /// Installs flaky-responder behaviour after construction (the scenario
  /// layer applies a FaultPlan to an already-built pool).
  void set_flaky(double short_reply_prob, double malformed_reply_prob) {
    params_.short_reply_prob = short_reply_prob;
    params_.malformed_reply_prob = malformed_reply_prob;
  }

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t ect_marked_requests = 0;  ///< requests that arrived ECT/CE
  };
  const Stats& stats() const { return stats_; }

private:
  netsim::Host& host_;
  SimClock clock_;
  Params params_;
  bool online_ = true;
  std::shared_ptr<netsim::UdpSocket> socket_;
  Stats stats_;
};

}  // namespace ecnprobe::ntp
