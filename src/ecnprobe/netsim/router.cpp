#include "ecnprobe/netsim/router.hpp"

#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::netsim {

void Router::on_receive(wire::Datagram dgram, int /*ingress_if*/) {
  if (dgram.ip.dst == address()) {
    // Routers are not probe targets in this study; traffic addressed to a
    // router (other than our ICMP) is absorbed.
    ++stats_.delivered_local;
    return;
  }

  auto& recorder = net_->obs().recorder;

  // RFC 791: decrement TTL at each hop; expire at zero.
  if (dgram.ip.ttl <= 1) {
    ++stats_.ttl_expired;
    net_->obs().ledger.record_drop(obs::Layer::Router, obs::DropCause::TtlExpired, name());
    if (recorder.armed() && dgram.flight != 0) {
      recorder.record(dgram.flight, obs::SpanEvent::PolicyDrop, net_->sim().now(),
                      obs::Layer::Router, name(), address().value(), "ttl-expired",
                      dgram.encode());
    }
    if (rng_.bernoulli(params_.icmp_response_prob)) {
      // Quote the datagram exactly as received -- including any ECN mark an
      // upstream middlebox stripped -- per RFC 1812 section 4.3.2.3.
      wire::Datagram icmp = wire::make_time_exceeded(address(), dgram);
      icmp.flight = dgram.flight;  // the error is part of the probe's story
      send_icmp(std::move(icmp), "time-exceeded");
    }
    return;
  }
  --dgram.ip.ttl;

  const int egress = net_->route(id(), dgram.ip.dst);
  if (egress == kNoInterface) {
    ++stats_.unroutable;
    net_->obs().ledger.record_drop(obs::Layer::Router, obs::DropCause::Unroutable, name());
    if (recorder.armed() && dgram.flight != 0) {
      recorder.record(dgram.flight, obs::SpanEvent::PolicyDrop, net_->sim().now(),
                      obs::Layer::Router, name(), address().value(), "unroutable",
                      dgram.encode());
    }
    if (rng_.bernoulli(params_.icmp_response_prob)) {
      wire::Datagram icmp =
          wire::make_dest_unreachable(address(), dgram, wire::IcmpUnreachCode::Net);
      icmp.flight = dgram.flight;
      send_icmp(std::move(icmp), "dest-unreachable");
    }
    return;
  }
  ++stats_.forwarded;
  if (recorder.armed() && dgram.flight != 0) {
    recorder.record(dgram.flight, obs::SpanEvent::HopForward, net_->sim().now(),
                    obs::Layer::Router, name(), address().value(),
                    util::strf("ttl=%d", dgram.ip.ttl), dgram.encode());
  }
  net_->transmit(id(), egress, std::move(dgram));
}

void Router::send_icmp(wire::Datagram&& icmp, const char* kind) {
  icmp.ip.identification = net_->next_ip_id();
  const int egress = net_->route(id(), icmp.ip.dst);
  if (egress == kNoInterface) return;
  ++stats_.icmp_sent;
  auto& recorder = net_->obs().recorder;
  if (recorder.armed() && icmp.flight != 0) {
    recorder.record(icmp.flight, obs::SpanEvent::IcmpGenerated, net_->sim().now(),
                    obs::Layer::Router, name(), address().value(), kind, icmp.encode());
  }
  net_->transmit(id(), egress, std::move(icmp));
}

}  // namespace ecnprobe::netsim
