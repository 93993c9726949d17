#include "ecnprobe/wire/datagram.hpp"

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/tcp.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace ecnprobe::wire {

std::vector<std::uint8_t> Datagram::encode() const {
  Ipv4Header h = ip;
  h.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + payload.size());
  ByteWriter out(h.total_length);
  h.encode(out);
  out.bytes(payload);
  return out.take();
}

util::Expected<Datagram> Datagram::decode(std::span<const std::uint8_t> bytes) {
  auto decoded = decode_ipv4_header(bytes);
  if (!decoded) return decoded.error();
  if (!decoded->checksum_ok) return util::make_error("datagram.decode", "bad IP checksum");
  if (bytes.size() < decoded->header.total_length) {
    return util::make_error("datagram.decode", "truncated datagram");
  }
  Datagram d;
  d.ip = decoded->header;
  const auto payload =
      bytes.subspan(decoded->header_len, decoded->header.total_length - decoded->header_len);
  d.payload.assign(payload);
  return d;
}

std::string Datagram::summary() const {
  return util::strf("%s payload=%zuB", ip.to_string().c_str(), payload.size());
}

namespace {

Datagram finish(Ipv4Address src, Ipv4Address dst, IpProto proto, Ecn ecn, std::uint8_t ttl,
                SmallBytes segment) {
  Datagram d;
  d.ip.src = src;
  d.ip.dst = dst;
  d.ip.protocol = proto;
  d.ip.ecn = ecn;
  d.ip.ttl = ttl;
  d.payload = std::move(segment);
  d.ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + d.payload.size());
  return d;
}

}  // namespace

Datagram make_udp_datagram(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                           std::uint16_t dst_port, std::span<const std::uint8_t> payload,
                           Ecn ecn, std::uint8_t ttl) {
  return finish(src, dst, IpProto::Udp, ecn, ttl,
                encode_udp_segment(src, dst, src_port, dst_port, payload));
}

Datagram make_tcp_datagram(Ipv4Address src, Ipv4Address dst, const TcpHeader& tcp,
                           std::span<const std::uint8_t> payload, Ecn ecn, std::uint8_t ttl) {
  return finish(src, dst, IpProto::Tcp, ecn, ttl, encode_tcp_segment(src, dst, tcp, payload));
}

Datagram make_icmp_datagram(Ipv4Address src, Ipv4Address dst, const IcmpMessage& msg,
                            std::uint8_t ttl) {
  return finish(src, dst, IpProto::Icmp, Ecn::NotEct, ttl, msg.encode());
}

namespace {

Datagram make_icmp_error(Ipv4Address sender, const Datagram& received, IcmpType type,
                         std::uint8_t code) {
  // Quote the header exactly as received (TTL, ECN, and all); this is what
  // lets the traceroute analysis see upstream modifications.
  Ipv4Header quoted = received.ip;
  quoted.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + received.payload.size());
  return finish(sender, received.ip.src, IpProto::Icmp, Ecn::NotEct, Ipv4Header::kDefaultTtl,
                encode_icmp_error(type, code, quoted, received.payload.view()));
}

}  // namespace

Datagram make_time_exceeded(Ipv4Address router_addr, const Datagram& received) {
  return make_icmp_error(router_addr, received, IcmpType::TimeExceeded, 0);
}

Datagram make_dest_unreachable(Ipv4Address sender_addr, const Datagram& received,
                               IcmpUnreachCode code) {
  return make_icmp_error(sender_addr, received, IcmpType::DestUnreachable,
                         static_cast<std::uint8_t>(code));
}

}  // namespace ecnprobe::wire
