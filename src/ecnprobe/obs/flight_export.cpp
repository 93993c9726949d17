#include "ecnprobe/obs/flight_export.hpp"

#include <cinttypes>
#include <fstream>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {

namespace {

// pcapng readers detect byte order from the SHB magic; we emit
// little-endian explicitly for a stable on-disk format (same choice as the
// classic pcap writer in netsim).
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

void put_padded(std::ostream& os, const void* data, std::size_t size) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  static const char zeros[4] = {0, 0, 0, 0};
  const std::size_t pad = (4 - size % 4) % 4;
  if (pad > 0) os.write(zeros, static_cast<std::streamsize>(pad));
}

std::size_t padded(std::size_t size) { return size + (4 - size % 4) % 4; }

constexpr std::uint32_t kShbType = 0x0a0d0d0a;
constexpr std::uint32_t kShbMagic = 0x1a2b3c4d;
constexpr std::uint32_t kIdbType = 0x00000001;
constexpr std::uint32_t kEpbType = 0x00000006;
constexpr std::uint32_t kLinktypeRaw = 101;  // packets start at the IP header
constexpr std::uint16_t kOptComment = 1;
constexpr std::uint16_t kOptEndOfOpt = 0;
constexpr std::uint16_t kOptIfTsResol = 9;

std::string event_comment(const FlightEvent& event) {
  return util::strf("trace=%d probe=%d seq=%d event=%s layer=%s node=%s detail=%s",
                    event.key.trace, event.key.probe, event.key.seq,
                    std::string(to_string(event.type)).c_str(),
                    std::string(to_string(event.layer)).c_str(), event.node.c_str(),
                    event.detail.c_str());
}

}  // namespace

std::size_t write_pcapng(std::ostream& os, const std::vector<FlightEvent>& events) {
  // Section Header Block, no options.
  put_u32(os, kShbType);
  put_u32(os, 28);
  put_u32(os, kShbMagic);
  put_u16(os, 1);  // version major
  put_u16(os, 0);  // version minor
  put_u32(os, 0xffffffff);  // section length unknown (low word)
  put_u32(os, 0xffffffff);  // (high word)
  put_u32(os, 28);

  // Interface Description Block: raw IP, nanosecond timestamps.
  // Options: if_tsresol(9) + end-of-options = 4 + 4 bytes.
  put_u32(os, kIdbType);
  put_u32(os, 28);
  put_u16(os, static_cast<std::uint16_t>(kLinktypeRaw));
  put_u16(os, 0);  // reserved
  put_u32(os, 0);  // snaplen: unlimited
  put_u16(os, kOptIfTsResol);
  put_u16(os, 1);
  const char tsresol[4] = {9, 0, 0, 0};  // 10^-9, padded to 4
  os.write(tsresol, 4);
  put_u16(os, kOptEndOfOpt);
  put_u16(os, 0);
  put_u32(os, 28);

  std::size_t written = 0;
  for (const auto& event : events) {
    if (event.wire.empty()) continue;  // timeouts have no packet
    const std::string comment = event_comment(event);
    const std::size_t options_len = 4 + padded(comment.size()) + 4;
    const std::size_t block_len = 32 + padded(event.wire.size()) + options_len;
    const std::uint64_t ns = static_cast<std::uint64_t>(event.time.count_nanos());

    put_u32(os, kEpbType);
    put_u32(os, static_cast<std::uint32_t>(block_len));
    put_u32(os, 0);  // interface id
    put_u32(os, static_cast<std::uint32_t>(ns >> 32));
    put_u32(os, static_cast<std::uint32_t>(ns & 0xffffffff));
    put_u32(os, static_cast<std::uint32_t>(event.wire.size()));  // captured
    put_u32(os, static_cast<std::uint32_t>(event.wire.size()));  // original
    put_padded(os, event.wire.data(), event.wire.size());
    put_u16(os, kOptComment);
    put_u16(os, static_cast<std::uint16_t>(comment.size()));
    put_padded(os, comment.data(), comment.size());
    put_u16(os, kOptEndOfOpt);
    put_u16(os, 0);
    put_u32(os, static_cast<std::uint32_t>(block_len));
    ++written;
  }
  return written;
}

bool write_pcapng_file(const std::string& path, const std::vector<FlightEvent>& events) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_pcapng(os, events);
  return static_cast<bool>(os);
}

std::string to_chrome_trace_json(const std::vector<FlightEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events) {
    if (!first) out += ",";
    first = false;
    const std::int64_t ns = event.time.count_nanos();
    out += util::strf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%" PRId64 ".%03" PRId64 ",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"seq\":%d,\"node\":\"%s\",\"detail\":\"%s\",\"wire_bytes\":%zu}}",
        std::string(to_string(event.type)).c_str(),
        std::string(to_string(event.layer)).c_str(), ns / 1000, ns % 1000,
        event.key.trace, event.key.probe, event.key.seq,
        util::json_escape(event.node).c_str(), util::json_escape(event.detail).c_str(),
        event.wire.size());
  }
  return out + "]}\n";
}

bool write_flight_files(const std::string& prefix, const std::vector<FlightEvent>& events) {
  if (!write_pcapng_file(prefix + ".pcapng", events)) return false;
  std::ofstream json_os(prefix + ".trace.json");
  if (!json_os) return false;
  json_os << to_chrome_trace_json(events);
  return static_cast<bool>(json_os);
}

}  // namespace ecnprobe::obs
