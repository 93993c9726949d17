// The flight exporters render in place (one buffer per pcapng block, an
// exact-size Chrome trace, a streamed trace file). Their bytes must equal
// the printf-style rendering they replaced, kept below as the reference:
// every field through util::strf, one stream write per pcapng field, and
// the wire bytes as FlightEvent::wire() renders them.
#include "ecnprobe/obs/flight_export.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {
namespace {

using util::SimTime;

// -- reference rendering ------------------------------------------------------

void ref_u16(std::ostream& os, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  os.write(bytes, 2);
}

void ref_u32(std::ostream& os, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
                         static_cast<char>((v >> 16) & 0xff),
                         static_cast<char>(v >> 24)};
  os.write(bytes, 4);
}

void ref_padded(std::ostream& os, const void* data, std::size_t size) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  static const char zeros[4] = {0, 0, 0, 0};
  const std::size_t pad = (4 - size % 4) % 4;
  if (pad > 0) os.write(zeros, static_cast<std::streamsize>(pad));
}

std::size_t ref_pad(std::size_t size) { return size + (4 - size % 4) % 4; }

std::string reference_pcapng(const std::vector<FlightEvent>& events) {
  std::ostringstream os;
  ref_u32(os, 0x0a0d0d0a);
  ref_u32(os, 28);
  ref_u32(os, 0x1a2b3c4d);
  ref_u16(os, 1);
  ref_u16(os, 0);
  ref_u32(os, 0xffffffff);
  ref_u32(os, 0xffffffff);
  ref_u32(os, 28);
  ref_u32(os, 1);
  ref_u32(os, 28);
  ref_u16(os, 101);
  ref_u16(os, 0);
  ref_u32(os, 0);
  ref_u16(os, 9);
  ref_u16(os, 1);
  const char tsresol[4] = {9, 0, 0, 0};
  os.write(tsresol, 4);
  ref_u16(os, 0);
  ref_u16(os, 0);
  ref_u32(os, 28);
  for (const auto& event : events) {
    const std::vector<std::uint8_t> wire = event.wire();
    if (wire.empty()) continue;
    const std::string node(event.node.view());
    const std::string detail(event.detail.view());
    const std::string comment = util::strf(
        "trace=%d probe=%d seq=%d event=%s layer=%s node=%s detail=%s", event.key.trace,
        event.key.probe, event.key.seq, std::string(to_string(event.type)).c_str(),
        std::string(to_string(event.layer)).c_str(), node.c_str(), detail.c_str());
    const std::size_t block_len =
        32 + ref_pad(wire.size()) + 4 + ref_pad(comment.size()) + 4;
    const auto ns = static_cast<std::uint64_t>(event.time.count_nanos());
    ref_u32(os, 6);
    ref_u32(os, static_cast<std::uint32_t>(block_len));
    ref_u32(os, 0);
    ref_u32(os, static_cast<std::uint32_t>(ns >> 32));
    ref_u32(os, static_cast<std::uint32_t>(ns & 0xffffffff));
    ref_u32(os, static_cast<std::uint32_t>(wire.size()));
    ref_u32(os, static_cast<std::uint32_t>(wire.size()));
    ref_padded(os, wire.data(), wire.size());
    ref_u16(os, 1);
    ref_u16(os, static_cast<std::uint16_t>(comment.size()));
    ref_padded(os, comment.data(), comment.size());
    ref_u16(os, 0);
    ref_u16(os, 0);
    ref_u32(os, static_cast<std::uint32_t>(block_len));
  }
  return os.str();
}

std::string reference_chrome(const std::vector<FlightEvent>& events) {
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
        util::json_escape(event.node.view()).c_str(),
        util::json_escape(event.detail.view()).c_str(), event.wire().size());
  }
  return out + "]}\n";
}

// -- inputs -------------------------------------------------------------------

FlightEvent make_event(SpanKey key, SpanEvent type, std::int64_t ns, Layer layer,
                       std::string node, std::string detail, std::size_t wire_bytes) {
  FlightEvent event;
  event.key = key;
  event.type = type;
  event.time = SimTime::from_nanos(ns);
  event.layer = layer;
  event.node = SharedBytes(node);
  event.detail = SharedBytes(detail);
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < wire_bytes; ++i) {
    wire.push_back(static_cast<std::uint8_t>(0x45 + i * 7));
  }
  event.set_wire(wire);
  return event;
}

/// The same packet one hop on: `event`'s image, shared, under TOS, TTL and
/// checksum bytes of its own.
FlightEvent next_hop(const FlightEvent& event, std::array<std::uint8_t, 4> own_bytes) {
  FlightEvent hop = event;
  hop.type = SpanEvent::HopForward;
  hop.own_bytes = own_bytes;
  return hop;
}

/// Escapes, control and high bytes, NULs, negative keys, timestamps at
/// and around every formatting edge, and wire sizes at every padding.
std::vector<FlightEvent> edge_events() {
  std::vector<FlightEvent> events;
  events.push_back(make_event({0, 0, 0}, SpanEvent::ProbeSent, 0, Layer::Host, "vp",
                              "plain", 20));
  events.push_back(next_hop(events.back(), {0x02, 0x3f, 0xbe, 0xef}));
  events.push_back(next_hop(events.back(), {0xff, 0x00, 0x00, 0x00}));
  events.push_back(make_event({0, 0, 1}, SpanEvent::ProbeSent, 3, Layer::Host, "vp",
                              "twelve", 12));
  events.push_back(next_hop(events.back(), {0x01, 0x02, 0x03, 0x04}));
  events.push_back(make_event({0, 0, 2}, SpanEvent::ProbeSent, 4, Layer::Host, "vp",
                              "eleven", 11));
  events.back().own_bytes = {0x01, 0x02, 0x03, 0x04};  // too short: never written
  events.push_back(make_event({3, 7, 1}, SpanEvent::HopForward, 999, Layer::Router,
                              "r\"quoted\"", R"(back\slash "and" quotes)", 1));
  events.push_back(make_event({-1, -1, 0}, SpanEvent::Timeout, 1000, Layer::App, "",
                              "", 0));
  events.push_back(make_event({12, 40, 2}, SpanEvent::PolicyDrop, 5'000'000'123,
                              Layer::Link, "link\n\r\t", "ctl \x01\x02\x1f del \x7f", 2));
  events.push_back(make_event({1, 2, 3}, SpanEvent::EcnRewritten,
                              (std::int64_t{1} << 32) + 7, Layer::Router,
                              "high \xc3\xa9\xff\x80", "utf8 \xe2\x86\x92", 3));
  events.push_back(make_event({2, 9, 0}, SpanEvent::IcmpGenerated, 1'500'000'050,
                              Layer::Router, std::string("no\0de", 5),
                              std::string("ab\0cd \"x\"", 9), 4));
  events.push_back(make_event({2147483647, -2147483647 - 1, 65535},
                              SpanEvent::ReplyReceived, 9'223'372'036'854'775'807,
                              Layer::Measure, "max", "edge", 5));
  events.push_back(make_event({4, 4, 4}, SpanEvent::Retransmit, -1, Layer::Host, "neg",
                              "-1 ns", 6));
  events.push_back(make_event({4, 4, 5}, SpanEvent::Retransmit, -1'000, Layer::Host,
                              "neg", "-1000 ns", 7));
  events.push_back(make_event({4, 4, 6}, SpanEvent::Retransmit, -123'456'789, Layer::Host,
                              "neg", "-123456789 ns", 8));
  events.push_back(make_event({5, 5, 5}, SpanEvent::ProbeSent,
                              -9'223'372'036'854'775'807 - 1, Layer::Policy, "min",
                              "edge", 9));
  return events;
}

// -- tests --------------------------------------------------------------------

TEST(FlightExportReference, ChromeTraceMatchesPrintfRendering) {
  const auto events = edge_events();
  EXPECT_EQ(to_chrome_trace_json(events), reference_chrome(events));
  for (const auto& event : events) {
    const std::vector<FlightEvent> one{event};
    EXPECT_EQ(to_chrome_trace_json(one), reference_chrome(one)) << event.detail.view();
  }
  EXPECT_EQ(to_chrome_trace_json({}), reference_chrome({}));
  EXPECT_EQ(to_chrome_trace_json({}), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST(FlightExportReference, PcapngMatchesPerFieldWrites) {
  const auto events = edge_events();
  std::ostringstream os;
  EXPECT_EQ(write_pcapng(os, events), events.size() - 1);  // the timeout has no wire
  EXPECT_EQ(os.str(), reference_pcapng(events));

  std::ostringstream empty;
  EXPECT_EQ(write_pcapng(empty, {}), 0u);
  EXPECT_EQ(empty.str(), reference_pcapng({}));

  // A comment past 65,535 bytes keeps the length field's 16-bit wrap.
  const std::vector<FlightEvent> long_comment{make_event(
      {1, 1, 1}, SpanEvent::ProbeSent, 42, Layer::Host, "vp", std::string(70'000, 'd'), 5)};
  std::ostringstream long_os;
  write_pcapng(long_os, long_comment);
  EXPECT_EQ(long_os.str(), reference_pcapng(long_comment));
}

TEST(FlightExportReference, NulEndsThePcapngCommentAndIsEscapedInJson) {
  const std::vector<FlightEvent> events{make_event({2, 9, 0}, SpanEvent::IcmpGenerated, 7,
                                                   Layer::Router, "r1",
                                                   std::string("ab\0cd", 5), 4)};
  std::ostringstream os;
  write_pcapng(os, events);
  const std::string pcapng = os.str();
  const std::string comment = "node=r1 detail=ab";
  const auto at = pcapng.find(comment);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(pcapng.find("cd", at), std::string::npos);
  // The comment ends at the NUL; the padding after it is zeros.
  EXPECT_EQ(pcapng[at + comment.size()], '\0');

  const std::string json = to_chrome_trace_json(events);
  EXPECT_NE(json.find(R"("detail":"ab\u0000cd")"), std::string::npos) << json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FlightExportReference, FlightFilesEqualTheInMemoryExports) {
  // Enough events that the streamed trace crosses its chunk boundary many
  // times, with the long-detail event straddling one.
  std::vector<FlightEvent> events;
  for (int round = 0; round < 200; ++round) {
    for (auto event : edge_events()) {
      event.key.seq += round;
      events.push_back(std::move(event));
    }
    if (round == 150) {
      events.push_back(make_event({1, 1, 1}, SpanEvent::ProbeSent, 42, Layer::Host, "vp",
                                  std::string(70'000, '"'), 5));
    }
  }
  const std::string prefix = ::testing::TempDir() + "/flight_export_files";
  ASSERT_TRUE(write_flight_files(prefix, events));
  std::ostringstream pcapng;
  write_pcapng(pcapng, events);
  const std::string json = to_chrome_trace_json(events);
  ASSERT_GT(json.size(), 4u * 64 * 1024);
  EXPECT_TRUE(read_file(prefix + ".pcapng") == pcapng.str());
  EXPECT_TRUE(read_file(prefix + ".trace.json") == json);

  ASSERT_TRUE(write_flight_files(prefix, {}));
  EXPECT_EQ(read_file(prefix + ".trace.json"), to_chrome_trace_json({}));
  std::remove((prefix + ".pcapng").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

TEST(FlightExportReference, FlightFilesReportAnUnwritableDirectory) {
  const std::string prefix = ::testing::TempDir() + "/no-such-dir/flight";
  EXPECT_FALSE(write_flight_files(prefix, edge_events()));
  EXPECT_FALSE(write_pcapng_file(prefix + ".pcapng", edge_events()));
}

}  // namespace
}  // namespace ecnprobe::obs
