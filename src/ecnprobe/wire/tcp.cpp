#include "ecnprobe/wire/tcp.hpp"

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"

namespace ecnprobe::wire {

std::uint16_t TcpFlags::to_bits() const {
  std::uint16_t bits = 0;
  if (ns) bits |= 0x100;
  if (cwr) bits |= 0x080;
  if (ece) bits |= 0x040;
  if (urg) bits |= 0x020;
  if (ack) bits |= 0x010;
  if (psh) bits |= 0x008;
  if (rst) bits |= 0x004;
  if (syn) bits |= 0x002;
  if (fin) bits |= 0x001;
  return bits;
}

TcpFlags TcpFlags::from_bits(std::uint16_t bits) {
  TcpFlags f;
  f.ns = bits & 0x100;
  f.cwr = bits & 0x080;
  f.ece = bits & 0x040;
  f.urg = bits & 0x020;
  f.ack = bits & 0x010;
  f.psh = bits & 0x008;
  f.rst = bits & 0x004;
  f.syn = bits & 0x002;
  f.fin = bits & 0x001;
  return f;
}

std::string TcpFlags::to_string() const {
  std::string out;
  auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += '|';
    out += name;
  };
  add(syn, "SYN");
  add(ack, "ACK");
  add(fin, "FIN");
  add(rst, "RST");
  add(psh, "PSH");
  add(urg, "URG");
  add(ece, "ECE");
  add(cwr, "CWR");
  add(ns, "NS");
  return out.empty() ? "-" : out;
}

template <class Buffer>
void TcpHeader::encode(BasicByteWriter<Buffer>& out) const {
  out.u16(src_port);
  out.u16(dst_port);
  out.u32(seq);
  out.u32(ack);
  const std::size_t padded_opts = (options.size() + 3) / 4 * 4;
  const auto data_offset = static_cast<std::uint16_t>((kMinSize + padded_opts) / 4);
  out.u16(static_cast<std::uint16_t>((data_offset << 12) | flags.to_bits()));
  out.u16(window);
  out.u16(checksum);
  out.u16(urgent);
  out.bytes(options);
  out.zeros(padded_opts - options.size());
}
template void TcpHeader::encode(ByteWriter&) const;
template void TcpHeader::encode(SegmentWriter&) const;

util::Expected<TcpDecoded> decode_tcp_header(std::span<const std::uint8_t> data) {
  ByteReader in(data);
  TcpDecoded out;
  TcpHeader& h = out.header;
  h.src_port = in.u16();
  h.dst_port = in.u16();
  h.seq = in.u32();
  h.ack = in.u32();
  const std::uint16_t off_flags = in.u16();
  const std::size_t header_len = static_cast<std::size_t>(off_flags >> 12) * 4;
  h.flags = TcpFlags::from_bits(off_flags & 0x1ff);
  h.window = in.u16();
  h.checksum = in.u16();
  h.urgent = in.u16();
  if (!in.ok()) return util::make_error("tcp.decode", "truncated header");
  if (header_len < TcpHeader::kMinSize) return util::make_error("tcp.decode", "data offset below 5");
  if (data.size() < header_len) return util::make_error("tcp.decode", "truncated options");
  const auto opts = in.bytes(header_len - TcpHeader::kMinSize);
  h.options.assign(opts.begin(), opts.end());
  out.header_len = header_len;
  return out;
}

std::string TcpHeader::to_string() const {
  return util::strf("TCP %u->%u seq=%u ack=%u flags=%s win=%u", src_port, dst_port, seq,
                    ack, flags.to_string().c_str(), window);
}

SmallBytes encode_tcp_segment(Ipv4Address src, Ipv4Address dst, const TcpHeader& header,
                              std::span<const std::uint8_t> payload) {
  SegmentWriter out(header.header_len() + payload.size());
  TcpHeader h = header;
  h.checksum = 0;
  h.encode(out);
  out.bytes(payload);
  const std::uint16_t csum = transport_checksum(
      src.value(), dst.value(), static_cast<std::uint8_t>(IpProto::Tcp), out.view());
  out.patch_u16(16, csum);
  return out.take();
}

util::Expected<TcpSegmentView> decode_tcp_segment(Ipv4Address src, Ipv4Address dst,
                                                  std::span<const std::uint8_t> segment) {
  auto decoded = decode_tcp_header(segment);
  if (!decoded) return decoded.error();
  TcpSegmentView view;
  view.header = std::move(decoded->header);
  view.payload = segment.subspan(decoded->header_len);
  view.checksum_ok = transport_checksum(src.value(), dst.value(),
                                        static_cast<std::uint8_t>(IpProto::Tcp), segment) == 0;
  return view;
}

std::vector<std::uint8_t> make_mss_option(std::uint16_t mss) {
  return {0x02, 0x04, static_cast<std::uint8_t>(mss >> 8),
          static_cast<std::uint8_t>(mss)};
}

std::optional<std::uint16_t> find_mss_option(std::span<const std::uint8_t> options) {
  std::size_t i = 0;
  while (i < options.size()) {
    const std::uint8_t kind = options[i];
    if (kind == 0) break;        // EOL
    if (kind == 1) {             // NOP
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) return std::nullopt;  // truncated length
    const std::uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) return std::nullopt;
    if (kind == 2) {
      if (len != 4) return std::nullopt;
      return static_cast<std::uint16_t>((options[i + 2] << 8) | options[i + 3]);
    }
    i += len;
  }
  return std::nullopt;
}

}  // namespace ecnprobe::wire
