#include "ecnprobe/ntp/ntp.hpp"

#include <algorithm>

#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::ntp {

struct NtpClient::Pending : std::enable_shared_from_this<NtpClient::Pending> {
  netsim::Host& host;
  obs::Handles<obs::Counter, 2>& hedge_counters;
  SimClock clock;
  wire::Ipv4Address server;
  NtpQueryOptions options;
  Handler handler;

  std::shared_ptr<netsim::UdpSocket> socket;
  wire::NtpPacket request;
  netsim::EventHandle timer;
  netsim::EventHandle hedge_timer;
  util::SimTime last_send;
  int attempts = 0;
  bool done = false;
  bool hedged = false;  ///< this attempt's request was duplicated on the wire
  std::uint32_t last_flight = 0;  ///< flight id of the latest attempt

  util::SimDuration attempt_timeout() const {
    if (options.timeout_schedule.empty()) return options.timeout;
    const auto i = std::min(static_cast<std::size_t>(attempts - 1),
                            options.timeout_schedule.size() - 1);
    return options.timeout_schedule[i];
  }

  Pending(netsim::Host& h, obs::Handles<obs::Counter, 2>& counters, SimClock c,
          wire::Ipv4Address s, NtpQueryOptions o, Handler cb)
      : host(h), hedge_counters(counters), clock(c), server(s), options(o),
        handler(std::move(cb)) {}

  void start() {
    socket = host.open_udp();
    auto self = shared_from_this();
    socket->set_receive_handler(
        [self](const netsim::UdpDelivery& delivery) { self->on_response(delivery); });
    send_attempt();
  }

  void send_attempt() {
    ++attempts;
    hedged = false;
    last_send = host.network().sim().now();
    // A fresh transmit timestamp per attempt: responses are matched to the
    // attempt that elicited them.
    request = wire::NtpPacket::make_client_request(clock.at(last_send));
    const auto bytes = request.encode();
    auto& recorder = host.network().obs().recorder;
    if (recorder.armed()) {
      recorder.set_seq(attempts - 1);
      last_flight = recorder.begin_flight(/*retransmit=*/attempts > 1);
    }
    socket->send(server, wire::kNtpPort, bytes, options.ecn, options.ttl);
    auto self = shared_from_this();
    const auto timeout = attempt_timeout();
    timer = host.network().sim().schedule(timeout, [self]() { self->on_timeout(); });
    // Guarded: the paper-default path (hedge_delay == 0) never schedules,
    // never touches metrics, and emits identical wire traffic.
    if (options.hedge_delay.count_nanos() > 0 && options.hedge_delay < timeout) {
      hedge_timer = host.network().sim().schedule(
          options.hedge_delay, [self, bytes]() { self->send_hedge(bytes); });
    }
  }

  void send_hedge(const std::vector<std::uint8_t>& bytes) {
    if (done) return;
    // Same encoded request, second transmission: either copy's response
    // matches answers(request). The attempt's timer keeps running.
    hedged = true;
    auto& recorder = host.network().obs().recorder;
    if (recorder.armed()) {
      recorder.set_seq(attempts - 1);
      last_flight = recorder.begin_flight(/*retransmit=*/true);
    }
    socket->send(server, wire::kNtpPort, bytes, options.ecn, options.ttl);
    auto& registry = host.network().obs().registry;
    hedge_counters
        .get(registry, 0,
             [&] {
               return registry.counter("sched_hedges_total", {},
                                       "hedged duplicate NTP requests sent");
             })
        .inc();
  }

  void on_response(const netsim::UdpDelivery& delivery) {
    if (done) return;
    if (delivery.src != server || delivery.src_port != wire::kNtpPort) return;
    const auto packet = wire::NtpPacket::decode(delivery.payload);
    if (!packet || !packet->answers(request)) return;
    done = true;
    timer.cancel();
    hedge_timer.cancel();
    if (hedged) {
      auto& registry = host.network().obs().registry;
      hedge_counters
          .get(registry, 1,
               [&] {
                 return registry.counter("sched_hedge_wins_total", {},
                                         "responses that arrived after the attempt was hedged");
               })
          .inc();
    }
    NtpQueryResult result;
    result.success = true;
    result.attempts = attempts;
    result.rtt = host.network().sim().now() - last_send;
    result.response_ecn = delivery.ecn;
    result.server_stratum = packet->stratum;
    finish(result);
  }

  void on_timeout() {
    if (done) return;
    hedge_timer.cancel();
    if (attempts >= options.max_attempts) {
      done = true;
      auto& recorder = host.network().obs().recorder;
      if (recorder.armed()) {
        recorder.record(last_flight, obs::SpanEvent::Timeout, host.network().sim().now(),
                        obs::Layer::App, host.name(), host.address().value(),
                        util::strf("after %d attempts", attempts));
      }
      NtpQueryResult result;
      result.success = false;
      result.attempts = attempts;
      finish(result);
      return;
    }
    send_attempt();
  }

  void finish(const NtpQueryResult& result) {
    socket->close();
    if (handler) handler(result);
  }
};

void NtpClient::query(wire::Ipv4Address server, const NtpQueryOptions& options,
                      Handler handler) {
  auto pending = std::make_shared<Pending>(host_, hedge_counters_, clock_, server, options,
                                           std::move(handler));
  pending->start();
}

NtpServerService::NtpServerService(netsim::Host& host, SimClock clock, Params params)
    : host_(host), clock_(clock), params_(params) {
  socket_ = host_.open_udp(wire::kNtpPort);
  socket_->set_receive_handler([this](const netsim::UdpDelivery& delivery) {
    ++stats_.requests;
    if (wire::is_ect(delivery.ecn)) ++stats_.ect_marked_requests;
    if (!online_) {  // left the pool / host down: silence
      host_.network().obs().ledger.record_drop(obs::Layer::App,
                                               obs::DropCause::ServerOffline, host_.name());
      return;
    }
    if (params_.response_prob < 1.0 && !host_.rng().bernoulli(params_.response_prob)) {
      // Rate-limited: drop this request.
      host_.network().obs().ledger.record_drop(obs::Layer::App,
                                               obs::DropCause::RateLimited, host_.name());
      return;
    }
    const auto request = wire::NtpPacket::decode(delivery.payload);
    if (!request || request->mode != wire::NtpMode::Client) return;
    const auto now = clock_.at(host_.network().sim().now());
    const auto response = wire::NtpPacket::make_server_response(
        *request, params_.stratum, 0x47505300 /* "GPS" refid */, now, now);
    auto bytes = response.encode();
    // Flaky-responder faults. Guarded draws: a fault-free server makes no
    // RNG calls here, so enabling faults elsewhere cannot perturb it.
    if (params_.short_reply_prob > 0.0 && host_.rng().bernoulli(params_.short_reply_prob)) {
      bytes.resize(bytes.size() / 2);  // under 48 bytes: decode fails, client retries
    } else if (params_.malformed_reply_prob > 0.0 &&
               host_.rng().bernoulli(params_.malformed_reply_prob)) {
      bytes[0] ^= 0x07;  // scramble the mode bits: answers() rejects it
    }
    // NTP servers do not participate in ECN: responses are not-ECT --
    // unless configured as a reflecting responder for return-path studies.
    const auto response_ecn =
        params_.reflect_ecn && wire::is_ect(delivery.ecn) ? delivery.ecn
                                                          : wire::Ecn::NotEct;
    // The response inherits the request's flight: the return path is part
    // of the same probe's story.
    auto& recorder = host_.network().obs().recorder;
    if (recorder.armed() && delivery.flight != 0) recorder.stage_reply(delivery.flight);
    socket_->send(delivery.src, delivery.src_port, bytes, response_ecn);
    ++stats_.responses;
  });
}

}  // namespace ecnprobe::ntp
