#include "ecnprobe/traceroute/traceroute.hpp"

#include <algorithm>
#include <stdexcept>

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace ecnprobe::traceroute {

void TracerouteOptions::validate() const {
  if (max_ttl < 1 || max_ttl > 255) {
    throw std::invalid_argument("TracerouteOptions: max_ttl must be in [1, 255]");
  }
  if (probes_per_hop <= 0) {
    throw std::invalid_argument("TracerouteOptions: probes_per_hop must be >= 1");
  }
  if (timeout.count_nanos() <= 0) {
    throw std::invalid_argument("TracerouteOptions: timeout must be positive");
  }
  if (stop_after_silent <= 0) {
    throw std::invalid_argument("TracerouteOptions: stop_after_silent must be >= 1");
  }
}

int PathRecord::responding_hops() const {
  return static_cast<int>(
      std::count_if(hops.begin(), hops.end(), [](const HopRecord& h) { return h.responded; }));
}

struct Tracerouter::Trace {
  wire::Ipv4Address destination;
  TracerouteOptions options;
  Handler handler;
  PathRecord record;

  int ttl = 1;
  int attempt = 0;
  int silent_streak = 0;
  std::uint16_t probe_src_port = 0;  ///< port of the in-flight probe
  std::uint32_t flight = 0;          ///< flight id of the in-flight probe
  netsim::EventHandle timer;
  bool done = false;
};

Tracerouter::Tracerouter(netsim::Host& host) : host_(host) {
  host_.set_protocol_handler(wire::IpProto::Icmp,
                             [this](const wire::Datagram& d) { on_icmp(d); });
}

Tracerouter::~Tracerouter() { host_.clear_protocol_handler(wire::IpProto::Icmp); }

void Tracerouter::trace(wire::Ipv4Address destination, const TracerouteOptions& options,
                        Handler handler) {
  options.validate();
  auto trace = std::make_shared<Trace>();
  trace->destination = destination;
  trace->options = options;
  trace->handler = std::move(handler);
  trace->record.destination = destination;
  send_probe(trace);
}

void Tracerouter::send_probe(const std::shared_ptr<Trace>& trace) {
  ++trace->attempt;
  const std::uint16_t src_port = next_src_port_;
  next_src_port_ = next_src_port_ >= 65500 ? 44000
                                           : static_cast<std::uint16_t>(next_src_port_ + 1);
  trace->probe_src_port = src_port;
  pending_.push_back(Pending{src_port, trace});

  // Classic traceroute: UDP to an unlikely high port, dst port varies with
  // TTL so replies are attributable even under reordering.
  const auto dst_port =
      static_cast<std::uint16_t>(trace->options.base_dst_port + trace->ttl);
  const std::uint8_t payload[8] = {'e', 'c', 'n', 'p', 'r', 'o', 'b', 'e'};
  // Traceroute spans: probe = the TTL being probed, seq = the attempt.
  auto& recorder = host_.network().obs().recorder;
  if (recorder.armed()) {
    recorder.set_probe(trace->ttl);
    recorder.set_seq(trace->attempt - 1);
    trace->flight = recorder.begin_flight(/*retransmit=*/trace->attempt > 1);
  }
  host_.send_datagram(wire::make_udp_datagram(host_.address(), trace->destination,
                                              src_port, dst_port, payload,
                                              trace->options.ecn,
                                              static_cast<std::uint8_t>(trace->ttl)));

  trace->timer = host_.network().sim().schedule(trace->options.timeout, [this, trace]() {
    const auto expired = find_pending(trace->probe_src_port);
    if (expired != pending_.end()) pending_.erase(expired);
    if (trace->done) return;
    if (trace->attempt < trace->options.probes_per_hop) {
      send_probe(trace);
      return;
    }
    auto& rec = host_.network().obs().recorder;
    if (rec.armed()) {
      rec.record(trace->flight, obs::SpanEvent::Timeout, host_.network().sim().now(),
                 obs::Layer::App, host_.name(), host_.address().value(),
                 util::strf("ttl=%d silent after %d probes", trace->ttl, trace->attempt));
    }
    HopRecord hop;
    hop.ttl = trace->ttl;
    hop.responded = false;
    hop.sent_ecn = trace->options.ecn;
    hop_done(trace, hop);
  });
}

std::vector<Tracerouter::Pending>::iterator Tracerouter::find_pending(
    std::uint16_t src_port) {
  return std::find_if(pending_.begin(), pending_.end(),
                      [src_port](const Pending& p) { return p.src_port == src_port; });
}

void Tracerouter::on_icmp(const wire::Datagram& dgram) {
  const auto decoded = wire::decode_icmp_message(dgram.payload);
  if (!decoded || !decoded->checksum_ok || !decoded->message.is_error()) return;
  const auto quotation = wire::parse_quotation(decoded->message.body);
  if (!quotation) return;
  std::shared_ptr<Trace> trace;
  if (quotation->header_complete) {
    if (quotation->inner_header.src != host_.address()) return;
    if (quotation->transport_prefix.size() < 4) return;
    // The first 8 quoted transport bytes are the UDP header; ports identify
    // the probe.
    const auto src_port = static_cast<std::uint16_t>(
        (quotation->transport_prefix[0] << 8) | quotation->transport_prefix[1]);
    const auto it = find_pending(src_port);
    if (it == pending_.end()) return;
    trace = it->trace;
    if (quotation->inner_header.dst != trace->destination) return;
    pending_.erase(it);
  } else {
    // Quote cut short of the full inner header: no transport bytes to match
    // a probe by port. Attribute it only when unambiguous -- exactly one
    // probe in flight -- and only if the fields that did survive don't
    // contradict it being ours. Ambiguous truncated quotes are dropped (the
    // hop then reads as silent), never mis-attributed.
    if (pending_.size() != 1) return;
    if (quotation->inner_header.src.value() != 0 &&
        quotation->inner_header.src != host_.address()) {
      return;
    }
    trace = std::move(pending_.front().trace);
    pending_.clear();
  }
  trace->timer.cancel();
  if (trace->done) return;

  HopRecord hop;
  hop.ttl = trace->ttl;
  hop.responded = true;
  hop.responder = dgram.ip.src;
  hop.sent_ecn = trace->options.ecn;
  hop.quote_truncated = !quotation->header_complete;
  // A partial inner header cannot be validated (the quote carries no
  // checksum of its own, and the probe match above was heuristic), so a
  // ToS octet inside one is not evidence: the ECN verdict requires the
  // complete quoted header.
  hop.ecn_known = quotation->header_complete && quotation->ecn_known;
  if (hop.ecn_known) hop.quoted_ecn = quotation->inner_header.ecn;

  if (decoded->message.type == wire::IcmpType::DestUnreachable &&
      dgram.ip.src == trace->destination) {
    trace->record.reached_destination = true;
    trace->record.hops.push_back(hop);
    finish(trace);
    return;
  }
  hop_done(trace, hop);
}

void Tracerouter::hop_done(const std::shared_ptr<Trace>& trace, HopRecord hop) {
  trace->record.hops.push_back(hop);
  trace->silent_streak = hop.responded ? 0 : trace->silent_streak + 1;
  if (trace->ttl >= trace->options.max_ttl ||
      trace->silent_streak >= trace->options.stop_after_silent) {
    finish(trace);
    return;
  }
  ++trace->ttl;
  trace->attempt = 0;
  send_probe(trace);
}

void Tracerouter::finish(const std::shared_ptr<Trace>& trace) {
  if (trace->done) return;
  trace->done = true;
  trace->timer.cancel();
  if (trace->handler) trace->handler(trace->record);
}

}  // namespace ecnprobe::traceroute
