#include "ecnprobe/netsim/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace ecnprobe::netsim {

UdpSocket::~UdpSocket() { close(); }

void UdpSocket::send(wire::Ipv4Address dst, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, wire::Ecn ecn,
                     std::uint8_t ttl) {
  if (host_ == nullptr) return;
  wire::Datagram dgram =
      wire::make_udp_datagram(host_->address(), dst, port_, dst_port, payload, ecn, ttl);
  host_->send_datagram(std::move(dgram));
}

void UdpSocket::close() {
  if (host_ != nullptr) {
    host_->release_port(port_);
    host_ = nullptr;
  }
  handler_ = nullptr;  // a closed socket delivers nothing more
}

std::shared_ptr<UdpSocket> Host::open_udp(std::uint16_t port) {
  if (port == 0) port = pick_ephemeral_port();
  if (udp_sockets_.contains(port)) {
    throw std::runtime_error("Host::open_udp: port in use: " + std::to_string(port));
  }
  // Private constructor: can't use make_shared.
  std::shared_ptr<UdpSocket> socket(new UdpSocket(*this, port));
  udp_sockets_[port] = socket.get();
  return socket;
}

void Host::send_datagram(wire::Datagram dgram) {
  // Consume a staged flight before the early-out below: a client that
  // staged a send which never reaches the wire must not leak its pending
  // state into the next unrelated send.
  auto* recorder = net_ != nullptr ? &net_->obs().recorder : nullptr;
  const auto pending = recorder != nullptr && recorder->armed()
                           ? recorder->take_pending()
                           : obs::FlightRecorder::PendingSend{};
  if (net_ == nullptr || net_->interface_count(id()) == 0) return;
  dgram.ip.identification = net_->next_ip_id();
  if (pending.flight != 0) {
    dgram.flight = pending.flight;
    if (!pending.is_reply) {
      recorder->set_flight_origin(pending.flight, id());
      recorder->record(
          dgram.flight,
          pending.retransmit ? obs::SpanEvent::Retransmit : obs::SpanEvent::ProbeSent,
          net_->sim().now(), obs::Layer::Host, name(), address().value(),
          util::strf("dst=%s ecn=%s proto=%s", dgram.ip.dst.to_string().c_str(),
                     std::string(wire::to_string(dgram.ip.ecn)).c_str(),
                     std::string(wire::to_string(dgram.ip.protocol)).c_str()),
          dgram.encode());
    }
  }
  ++stats_.sent;
  for (auto* capture : captures_) capture->record(net_->sim().now(), Direction::Tx, dgram);
  net_->transmit(id(), 0, std::move(dgram));
}

void Host::set_protocol_handler(wire::IpProto proto, ProtocolHandler handler) {
  proto_handlers_[proto] = std::move(handler);
}

void Host::clear_protocol_handler(wire::IpProto proto) { proto_handlers_.erase(proto); }

void Host::add_capture(PacketCapture* capture) { captures_.push_back(capture); }

void Host::remove_capture(PacketCapture* capture) {
  captures_.erase(std::remove(captures_.begin(), captures_.end(), capture), captures_.end());
}

void Host::on_receive(wire::Datagram dgram, int /*ingress_if*/) {
  for (auto* capture : captures_) capture->record(net_->sim().now(), Direction::Rx, dgram);
  if (dgram.ip.dst != address()) return;  // not ours; hosts do not forward

  // A tracked packet coming home: replies inherit the request's flight id,
  // and the origin gate keeps the request's arrival at the *server* from
  // masquerading as a reply.
  auto& recorder = net_->obs().recorder;
  if (recorder.armed() && dgram.flight != 0 && recorder.flight_origin_is(dgram.flight, id())) {
    recorder.record(dgram.flight, obs::SpanEvent::ReplyReceived, net_->sim().now(),
                    obs::Layer::Host, name(), address().value(),
                    util::strf("src=%s ecn=%s proto=%s", dgram.ip.src.to_string().c_str(),
                               std::string(wire::to_string(dgram.ip.ecn)).c_str(),
                               std::string(wire::to_string(dgram.ip.protocol)).c_str()),
                    dgram.encode());
  }

  if (dgram.ip.protocol == wire::IpProto::Udp) {
    deliver_udp(dgram);
    return;
  }
  const auto it = proto_handlers_.find(dgram.ip.protocol);
  if (it != proto_handlers_.end()) it->second(dgram);
}

void Host::deliver_udp(const wire::Datagram& dgram) {
  auto segment = wire::decode_udp_segment(dgram.ip.src, dgram.ip.dst, dgram.payload);
  if (!segment || !segment->checksum_ok) {
    ++stats_.udp_bad_checksum;
    net_->obs().ledger.record_drop(obs::Layer::Host, obs::DropCause::BadChecksum, name());
    return;
  }
  const auto it = udp_sockets_.find(segment->header.dst_port);
  if (it == udp_sockets_.end()) {
    ++stats_.udp_no_socket;
    net_->obs().ledger.record_drop(obs::Layer::Host, obs::DropCause::NoSocket, name());
    if (params_.udp_port_unreachable) {
      send_datagram(wire::make_dest_unreachable(address(), dgram,
                                                wire::IcmpUnreachCode::Port));
    }
    return;
  }
  ++stats_.udp_delivered;
  if (!it->second->handler_) return;
  // Run the handler from a local: it may close its own socket, and close()
  // releases the handler, which must not be destroyed mid-call.
  UdpSocket* const socket = it->second;
  UdpDelivery delivery;
  delivery.src = dgram.ip.src;
  delivery.src_port = segment->header.src_port;
  delivery.dst = dgram.ip.dst;
  delivery.dst_port = segment->header.dst_port;
  delivery.payload.assign(segment->payload.begin(), segment->payload.end());
  delivery.ecn = dgram.ip.ecn;
  delivery.flight = dgram.flight;
  UdpSocket::ReceiveHandler handler = std::exchange(socket->handler_, nullptr);
  handler(delivery);
  if (socket->host_ != nullptr && !socket->handler_) socket->handler_ = std::move(handler);
}

void Host::release_port(std::uint16_t port) { udp_sockets_.erase(port); }

std::uint16_t Host::pick_ephemeral_port() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 49152 : static_cast<std::uint16_t>(
                                                             next_ephemeral_ + 1);
    if (!udp_sockets_.contains(candidate)) return candidate;
  }
  throw std::runtime_error("Host::pick_ephemeral_port: exhausted");
}

}  // namespace ecnprobe::netsim
