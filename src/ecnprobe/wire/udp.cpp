#include "ecnprobe/wire/udp.hpp"

#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"

namespace ecnprobe::wire {

template <class Buffer>
void UdpHeader::encode(BasicByteWriter<Buffer>& out) const {
  out.u16(src_port);
  out.u16(dst_port);
  out.u16(length);
  out.u16(checksum);
}
template void UdpHeader::encode(ByteWriter&) const;
template void UdpHeader::encode(SegmentWriter&) const;

util::Expected<UdpHeader> UdpHeader::decode(std::span<const std::uint8_t> data) {
  ByteReader in(data);
  UdpHeader h;
  h.src_port = in.u16();
  h.dst_port = in.u16();
  h.length = in.u16();
  h.checksum = in.u16();
  if (!in.ok()) return util::make_error("udp.decode", "truncated header");
  if (h.length < kSize) return util::make_error("udp.decode", "length below header size");
  return h;
}

SmallBytes encode_udp_segment(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                              std::uint16_t dst_port, std::span<const std::uint8_t> payload) {
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  h.checksum = 0;

  SegmentWriter out(UdpHeader::kSize + payload.size());
  h.encode(out);
  out.bytes(payload);
  std::uint16_t csum = transport_checksum(src.value(), dst.value(),
                                          static_cast<std::uint8_t>(IpProto::Udp), out.view());
  // RFC 768: a computed checksum of zero is transmitted as all ones.
  if (csum == 0) csum = 0xffff;
  out.patch_u16(6, csum);
  return out.take();
}

util::Expected<UdpSegmentView> decode_udp_segment(Ipv4Address src, Ipv4Address dst,
                                                  std::span<const std::uint8_t> segment) {
  auto header = UdpHeader::decode(segment);
  if (!header) return header.error();
  if (segment.size() < header->length) {
    return util::make_error("udp.decode", "segment shorter than length field");
  }
  UdpSegmentView view;
  view.header = *header;
  view.payload = segment.subspan(UdpHeader::kSize, header->length - UdpHeader::kSize);
  if (header->checksum != 0) {
    // Verify over exactly `length` bytes (ignores link padding).
    view.checksum_ok = transport_checksum(src.value(), dst.value(),
                                          static_cast<std::uint8_t>(IpProto::Udp),
                                          segment.subspan(0, header->length)) == 0;
  }
  return view;
}

}  // namespace ecnprobe::wire
