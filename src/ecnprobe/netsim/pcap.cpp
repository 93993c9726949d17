#include "ecnprobe/netsim/pcap.hpp"

#include <fstream>
#include <ostream>

namespace ecnprobe::netsim {

namespace {

// pcap is host-endian by spec (readers detect byte order from the magic);
// we emit little-endian explicitly for a stable on-disk format.
void put_u16(std::ostream& os, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  os.write(bytes, 2);
}

void put_u32(std::ostream& os, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
                         static_cast<char>((v >> 16) & 0xff),
                         static_cast<char>(v >> 24)};
  os.write(bytes, 4);
}

constexpr std::uint32_t kMagicMicroseconds = 0xa1b2c3d4;
constexpr std::uint32_t kLinktypeRaw = 101;  // packets start at the IP header

}  // namespace

std::size_t write_pcap(std::ostream& os, const PacketCapture& capture) {
  // Global header.
  put_u32(os, kMagicMicroseconds);
  put_u16(os, 2);   // version major
  put_u16(os, 4);   // version minor
  put_u32(os, 0);   // thiszone
  put_u32(os, 0);   // sigfigs
  put_u32(os, 65535);  // snaplen
  put_u32(os, kLinktypeRaw);

  std::size_t written = 0;
  for (const auto& packet : capture.packets()) {
    const auto bytes = packet.dgram.encode();
    const std::int64_t ns = packet.time.count_nanos();
    put_u32(os, static_cast<std::uint32_t>(ns / 1'000'000'000));
    put_u32(os, static_cast<std::uint32_t>((ns % 1'000'000'000) / 1'000));
    put_u32(os, static_cast<std::uint32_t>(bytes.size()));  // captured length
    put_u32(os, static_cast<std::uint32_t>(bytes.size()));  // original length
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ++written;
  }
  return written;
}

bool write_pcap_file(const std::string& path, const PacketCapture& capture) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_pcap(os, capture);
  os.close();  // a full disk may only show when the last buffer flushes
  return !os.fail();
}

}  // namespace ecnprobe::netsim
