#include "ecnprobe/wire/icmp.hpp"

#include <algorithm>

#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"

namespace ecnprobe::wire {

namespace {

/// The 8-byte ICMP header with a zero checksum, which seal() fills in.
void put_header(SegmentWriter& out, IcmpType type, std::uint8_t code,
                std::uint32_t rest_of_header) {
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(code);
  out.u16(0);  // checksum placeholder
  out.u32(rest_of_header);
}

SmallBytes seal(SegmentWriter& out) {
  out.patch_u16(2, internet_checksum(out.view()));
  return out.take();
}

/// RFC 792's quotation: the IP header as received and up to 8 transport
/// bytes.
template <class Buffer>
void put_quotation(BasicByteWriter<Buffer>& out, const Ipv4Header& received_header,
                   std::span<const std::uint8_t> transport_bytes) {
  received_header.encode(out);
  out.bytes(transport_bytes.first(std::min<std::size_t>(transport_bytes.size(), 8)));
}

}  // namespace

SmallBytes IcmpMessage::encode() const {
  SegmentWriter out(kHeaderSize + body.size());
  put_header(out, type, code, rest_of_header);
  out.bytes(body);
  return seal(out);
}

SmallBytes encode_icmp_error(IcmpType type, std::uint8_t code,
                             const Ipv4Header& received_header,
                             std::span<const std::uint8_t> transport_bytes) {
  SegmentWriter out(IcmpMessage::kHeaderSize + Ipv4Header::kSize + 8);
  put_header(out, type, code, 0);
  put_quotation(out, received_header, transport_bytes);
  return seal(out);
}

util::Expected<IcmpDecoded> decode_icmp_message(std::span<const std::uint8_t> data) {
  if (data.size() < IcmpMessage::kHeaderSize) {
    return util::make_error("icmp.decode", "truncated header");
  }
  IcmpDecoded out;
  ByteReader in(data);
  out.message.type = static_cast<IcmpType>(in.u8());
  out.message.code = in.u8();
  in.u16();  // checksum, verified over the whole message below
  out.message.rest_of_header = in.u32();
  const auto body = in.rest();
  out.message.body.assign(body.begin(), body.end());
  out.checksum_ok = internet_checksum(data) == 0;
  return out;
}

std::vector<std::uint8_t> make_error_quotation(const Ipv4Header& received_header,
                                               std::span<const std::uint8_t> transport_bytes) {
  ByteWriter out(Ipv4Header::kSize + 8);
  put_quotation(out, received_header, transport_bytes);
  return out.take();
}

util::Expected<Quotation> parse_quotation(std::span<const std::uint8_t> body) {
  auto inner = decode_ipv4_header(body);
  if (inner) {
    Quotation q;
    q.inner_header = inner->header;
    const auto rest = body.subspan(inner->header_len);
    q.transport_prefix.assign(rest.begin(), rest.end());
    return q;
  }
  // Tolerant path: a quote cut short of the full inner header. Accept any
  // prefix that is recognisably the start of an IPv4 header and report
  // exactly which fields survived; anything else stays an error.
  if (body.empty()) {
    return util::make_error("icmp.quotation", "empty quotation");
  }
  const std::uint8_t ver_ihl = body[0];
  const std::size_t header_len = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if ((ver_ihl >> 4) != 4 || header_len < Ipv4Header::kSize ||
      body.size() >= header_len) {
    // Not IPv4, bad IHL, or a full-length header that failed to decode for
    // some other reason: truncation tolerance does not apply.
    return util::make_error("icmp.quotation", "undecodable inner IP header");
  }
  Quotation q;
  q.header_complete = false;
  q.ecn_known = false;
  Ipv4Header& h = q.inner_header;
  if (body.size() >= 2) {
    h.dscp = static_cast<std::uint8_t>(body[1] >> 2);
    h.ecn = ecn_from_bits(body[1]);
    q.ecn_known = true;
  }
  if (body.size() >= 4) {
    h.total_length = static_cast<std::uint16_t>((body[2] << 8) | body[3]);
  }
  if (body.size() >= 6) {
    h.identification = static_cast<std::uint16_t>((body[4] << 8) | body[5]);
  }
  if (body.size() >= 8) {
    const std::uint16_t flags_frag = static_cast<std::uint16_t>((body[6] << 8) | body[7]);
    h.dont_fragment = (flags_frag & 0x4000) != 0;
    h.more_fragments = (flags_frag & 0x2000) != 0;
    h.fragment_offset = flags_frag & 0x1fff;
  }
  if (body.size() >= 9) h.ttl = body[8];
  if (body.size() >= 10) h.protocol = static_cast<IpProto>(body[9]);
  if (body.size() >= 16) {
    h.src = Ipv4Address{static_cast<std::uint32_t>(
        (body[12] << 24) | (body[13] << 16) | (body[14] << 8) | body[15])};
  }
  return q;
}

}  // namespace ecnprobe::wire
