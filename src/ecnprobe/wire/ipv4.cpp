#include "ecnprobe/wire/ipv4.hpp"

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"

namespace ecnprobe::wire {

util::Expected<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  const auto parts = util::split_views(text, '.');
  if (parts.size() != 4) {
    return util::make_error("ipv4.parse", "expected four dotted octets");
  }
  std::uint32_t addr = 0;
  for (const auto& part : parts) {
    if (part.empty() || part.size() > 3) {
      return util::make_error("ipv4.parse", "bad octet length");
    }
    unsigned value = 0;
    for (char c : part) {
      if (c < '0' || c > '9') return util::make_error("ipv4.parse", "non-digit octet");
      value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (value > 255) return util::make_error("ipv4.parse", "octet out of range");
    addr = (addr << 8) | value;
  }
  return Ipv4Address{addr};
}

std::string Ipv4Address::to_string() const {
  return util::strf("%u.%u.%u.%u", (addr_ >> 24) & 0xff, (addr_ >> 16) & 0xff,
                    (addr_ >> 8) & 0xff, addr_ & 0xff);
}

std::string_view to_string(IpProto p) {
  switch (p) {
    case IpProto::Icmp: return "ICMP";
    case IpProto::Tcp: return "TCP";
    case IpProto::Udp: return "UDP";
  }
  return "proto?";
}

template <class Buffer>
void Ipv4Header::encode(BasicByteWriter<Buffer>& out) const {
  const std::size_t start = out.size();
  out.u8(0x45);  // version 4, IHL 5
  out.u8(tos_octet());
  out.u16(total_length);
  out.u16(identification);
  std::uint16_t flags_frag = fragment_offset & 0x1fff;
  if (dont_fragment) flags_frag |= 0x4000;
  if (more_fragments) flags_frag |= 0x2000;
  out.u16(flags_frag);
  out.u8(ttl);
  out.u8(static_cast<std::uint8_t>(protocol));
  out.u16(0);  // checksum placeholder
  out.u32(src.value());
  out.u32(dst.value());
  const auto header_bytes = out.view().subspan(start, kSize);
  out.patch_u16(start + 10, internet_checksum(header_bytes));
}
template void Ipv4Header::encode(ByteWriter&) const;
template void Ipv4Header::encode(SegmentWriter&) const;

util::Expected<Ipv4Decoded> decode_ipv4_header(std::span<const std::uint8_t> data) {
  ByteReader in(data);
  const std::uint8_t ver_ihl = in.u8();
  if (!in.ok()) return util::make_error("ipv4.decode", "truncated header");
  if ((ver_ihl >> 4) != 4) return util::make_error("ipv4.decode", "not IPv4");
  const std::size_t header_len = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (header_len < Ipv4Header::kSize) return util::make_error("ipv4.decode", "IHL below minimum");
  if (data.size() < header_len) return util::make_error("ipv4.decode", "truncated options");

  Ipv4Decoded out;
  out.header_len = header_len;
  Ipv4Header& h = out.header;
  const std::uint8_t tos = in.u8();
  h.dscp = static_cast<std::uint8_t>(tos >> 2);
  h.ecn = ecn_from_bits(tos);
  h.total_length = in.u16();
  h.identification = in.u16();
  const std::uint16_t flags_frag = in.u16();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.fragment_offset = flags_frag & 0x1fff;
  h.ttl = in.u8();
  h.protocol = static_cast<IpProto>(in.u8());
  h.header_checksum = in.u16();
  h.src = Ipv4Address{in.u32()};
  h.dst = Ipv4Address{in.u32()};
  if (!in.ok()) return util::make_error("ipv4.decode", "truncated header");
  if (h.total_length < header_len) {
    return util::make_error("ipv4.decode", "total_length below header length");
  }
  out.checksum_ok = internet_checksum(data.subspan(0, header_len)) == 0;
  return out;
}

std::string Ipv4Header::to_string() const {
  return util::strf("IPv4 %s -> %s proto=%s ttl=%u ecn=%s len=%u",
                    src.to_string().c_str(), dst.to_string().c_str(),
                    std::string(wire::to_string(protocol)).c_str(), ttl,
                    std::string(wire::to_string(ecn)).c_str(), total_length);
}

}  // namespace ecnprobe::wire
