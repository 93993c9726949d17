#include "ecnprobe/obs/flight_export.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {

namespace {

// -- decimal fields -----------------------------------------------------------
// Every number is rendered as printf's %d / %zu / PRId64 would render it,
// through std::to_chars into the output string, with no temporaries.

template <typename Int>
void append_int(std::string& out, Int value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

std::size_t decimal_width(std::uint64_t value) {
  std::size_t width = 1;
  for (; value >= 10; value /= 10) ++width;
  return width;
}

std::size_t decimal_width(std::int64_t value) {
  return value < 0 ? 1 + decimal_width(0 - static_cast<std::uint64_t>(value))
                   : decimal_width(static_cast<std::uint64_t>(value));
}

/// Appends `value` in [0, 1000) zero-padded to `width` digits.
void append_padded(std::string& out, std::int64_t value, std::size_t width) {
  for (std::size_t w = decimal_width(value); w < width; ++w) out += '0';
  append_int(out, value);
}

// -- pcapng -------------------------------------------------------------------
// pcapng readers detect byte order from the SHB magic; we emit
// little-endian explicitly for a stable on-disk format (same choice as the
// classic pcap writer in netsim). Each block is assembled in one buffer and
// handed to the stream with a single write.

void put_u16_at(std::string& out, std::size_t at, std::uint16_t v) {
  out[at] = static_cast<char>(v & 0xff);
  out[at + 1] = static_cast<char>(v >> 8);
}

void put_u32_at(std::string& out, std::size_t at, std::uint32_t v) {
  put_u16_at(out, at, static_cast<std::uint16_t>(v & 0xffff));
  put_u16_at(out, at + 2, static_cast<std::uint16_t>(v >> 16));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.append(2, '\0');
  put_u16_at(out, out.size() - 2, v);
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(4, '\0');
  put_u32_at(out, out.size() - 4, v);
}

/// Zero-pads `out` to a multiple of four bytes past `start`.
void pad_from(std::string& out, std::size_t start) {
  out.append((4 - (out.size() - start) % 4) % 4, '\0');
}

/// The prefix of `s` before its first NUL: what a %s conversion prints.
std::string_view until_nul(std::string_view s) { return s.substr(0, s.find('\0')); }

constexpr std::uint32_t kShbType = 0x0a0d0d0a;
constexpr std::uint32_t kShbMagic = 0x1a2b3c4d;
constexpr std::uint32_t kIdbType = 0x00000001;
constexpr std::uint32_t kEpbType = 0x00000006;
constexpr std::uint32_t kLinktypeRaw = 101;  // packets start at the IP header
constexpr std::uint16_t kOptComment = 1;
constexpr std::uint16_t kOptEndOfOpt = 0;
constexpr std::uint16_t kOptIfTsResol = 9;

void append_section_header(std::string& out) {
  // Section Header Block, no options.
  put_u32(out, kShbType);
  put_u32(out, 28);
  put_u32(out, kShbMagic);
  put_u16(out, 1);  // version major
  put_u16(out, 0);  // version minor
  put_u32(out, 0xffffffff);  // section length unknown (low word)
  put_u32(out, 0xffffffff);  // (high word)
  put_u32(out, 28);

  // Interface Description Block: raw IP, nanosecond timestamps.
  // Options: if_tsresol(9) + end-of-options = 4 + 4 bytes.
  put_u32(out, kIdbType);
  put_u32(out, 28);
  put_u16(out, static_cast<std::uint16_t>(kLinktypeRaw));
  put_u16(out, 0);  // reserved
  put_u32(out, 0);  // snaplen: unlimited
  put_u16(out, kOptIfTsResol);
  put_u16(out, 1);
  out.append("\x09\0\0\0", 4);  // 10^-9, padded to 4
  put_u16(out, kOptEndOfOpt);
  put_u16(out, 0);
  put_u32(out, 28);
}

/// One Enhanced Packet Block: header, padded wire bytes, an opt_comment
/// naming the span key, event type, emitting node, layer and detail, then
/// end-of-options and the trailing length.
void append_packet_block(std::string& out, const FlightEvent& event) {
  const std::size_t start = out.size();
  const std::uint64_t ns = static_cast<std::uint64_t>(event.time.count_nanos());
  put_u32(out, kEpbType);
  put_u32(out, 0);  // block length, patched below
  put_u32(out, 0);  // interface id
  put_u32(out, static_cast<std::uint32_t>(ns >> 32));
  put_u32(out, static_cast<std::uint32_t>(ns & 0xffffffff));
  put_u32(out, static_cast<std::uint32_t>(event.wire.size()));  // captured
  put_u32(out, static_cast<std::uint32_t>(event.wire.size()));  // original
  const std::size_t wire_start = out.size();
  out.append(reinterpret_cast<const char*>(event.wire.data()), event.wire.size());
  pad_from(out, wire_start);

  const std::size_t option = out.size();
  put_u16(out, kOptComment);
  put_u16(out, 0);  // comment length, patched below
  const std::size_t comment = out.size();
  out += "trace=";
  append_int(out, event.key.trace);
  out += " probe=";
  append_int(out, event.key.probe);
  out += " seq=";
  append_int(out, event.key.seq);
  out += " event=";
  out += to_string(event.type);
  out += " layer=";
  out += to_string(event.layer);
  out += " node=";
  out += until_nul(event.node);
  out += " detail=";
  out += until_nul(event.detail);
  put_u16_at(out, option + 2, static_cast<std::uint16_t>(out.size() - comment));
  pad_from(out, comment);
  put_u16(out, kOptEndOfOpt);
  put_u16(out, 0);

  const auto block_len = static_cast<std::uint32_t>(out.size() + 4 - start);
  put_u32(out, block_len);
  put_u32_at(out, start + 4, block_len);
}

// -- Chrome trace-event JSON --------------------------------------------------
// One instant event per flight event:
//   {"name":"<type>","cat":"<layer>","ph":"i","s":"t","ts":<us>.<ns%1000>,
//    "pid":<trace>,"tid":<probe>,"args":{"seq":<seq>,"node":"<node>",
//    "detail":"<detail>","wire_bytes":<n>}}
// chrome_event_size() and append_chrome_event() walk the same fields, so a
// document can be reserved at its exact final size before it is rendered.

constexpr std::string_view kChromeHead = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
constexpr std::string_view kChromeTail = "]}\n";
constexpr std::string_view kName = "{\"name\":\"";
constexpr std::string_view kCat = "\",\"cat\":\"";
constexpr std::string_view kTs = "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
constexpr std::string_view kPid = ",\"pid\":";
constexpr std::string_view kTid = ",\"tid\":";
constexpr std::string_view kSeq = ",\"args\":{\"seq\":";
constexpr std::string_view kNode = ",\"node\":\"";
constexpr std::string_view kDetail = "\",\"detail\":\"";
constexpr std::string_view kWireBytes = "\",\"wire_bytes\":";
constexpr std::string_view kEventEnd = "}}";
constexpr std::size_t kEventFixed = kName.size() + kCat.size() + kTs.size() + 1 /* . */ +
                                    kPid.size() + kTid.size() + kSeq.size() + kNode.size() +
                                    kDetail.size() + kWireBytes.size() + kEventEnd.size();

/// Width of the timestamp's fraction as printf("%03" PRId64) renders
/// ns % 1000: three digits, or a sign and at least two when negative.
std::size_t fraction_width(std::int64_t fraction) {
  return fraction < 0 ? 1 + std::max<std::size_t>(2, decimal_width(-fraction)) : 3;
}

std::size_t chrome_event_size(const FlightEvent& event) {
  const std::int64_t ns = event.time.count_nanos();
  return kEventFixed + to_string(event.type).size() + to_string(event.layer).size() +
         decimal_width(ns / 1000) + fraction_width(ns % 1000) +
         decimal_width(std::int64_t{event.key.trace}) +
         decimal_width(std::int64_t{event.key.probe}) +
         decimal_width(std::int64_t{event.key.seq}) + util::json_escaped_size(event.node) +
         util::json_escaped_size(event.detail) +
         decimal_width(std::uint64_t{event.wire.size()});
}

void append_chrome_event(std::string& out, const FlightEvent& event) {
  const std::int64_t ns = event.time.count_nanos();
  out += kName;
  out += to_string(event.type);
  out += kCat;
  out += to_string(event.layer);
  out += kTs;
  append_int(out, ns / 1000);
  out += '.';
  const std::int64_t fraction = ns % 1000;
  if (fraction < 0) out += '-';
  append_padded(out, fraction < 0 ? -fraction : fraction, fraction < 0 ? 2 : 3);
  out += kPid;
  append_int(out, event.key.trace);
  out += kTid;
  append_int(out, event.key.probe);
  out += kSeq;
  append_int(out, event.key.seq);
  out += kNode;
  util::json_escape_append(out, event.node);
  out += kDetail;
  util::json_escape_append(out, event.detail);
  out += kWireBytes;
  append_int(out, event.wire.size());
  out += kEventEnd;
}

/// Closes `os` and reports whether every write and the close succeeded.
bool close_cleanly(std::ofstream& os) {
  os.close();
  return !os.fail();
}

}  // namespace

std::size_t write_pcapng(std::ostream& os, const std::vector<FlightEvent>& events) {
  std::string block;
  append_section_header(block);
  os.write(block.data(), static_cast<std::streamsize>(block.size()));

  std::size_t written = 0;
  for (const auto& event : events) {
    if (event.wire.empty()) continue;  // timeouts have no packet
    block.clear();
    append_packet_block(block, event);
    os.write(block.data(), static_cast<std::streamsize>(block.size()));
    ++written;
  }
  return written;
}

bool write_pcapng_file(const std::string& path, const std::vector<FlightEvent>& events) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_pcapng(os, events);
  return close_cleanly(os);
}

std::string to_chrome_trace_json(const std::vector<FlightEvent>& events) {
  std::size_t size = kChromeHead.size() + kChromeTail.size();
  for (const auto& event : events) size += chrome_event_size(event);
  if (!events.empty()) size += events.size() - 1;  // separating commas

  std::string out;
  out.reserve(size);
  out += kChromeHead;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    append_chrome_event(out, events[i]);
  }
  out += kChromeTail;
  if (out.size() != size) {
    throw std::logic_error("to_chrome_trace_json: rendered " + std::to_string(out.size()) +
                           " bytes, sized " + std::to_string(size));
  }
  return out;
}

bool write_flight_files(const std::string& prefix, const std::vector<FlightEvent>& events) {
  if (!write_pcapng_file(prefix + ".pcapng", events)) return false;
  std::ofstream os(prefix + ".trace.json", std::ios::binary);
  if (!os) return false;
  // The trace streams out in chunks of whole events, rendered by the same
  // appender as to_chrome_trace_json: never more than a chunk in memory.
  constexpr std::size_t kChunk = 64 * 1024;
  std::string chunk(kChromeHead);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) chunk += ',';
    append_chrome_event(chunk, events[i]);
    if (chunk.size() >= kChunk) {
      os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  chunk += kChromeTail;
  os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  return close_cleanly(os);
}

}  // namespace ecnprobe::obs
