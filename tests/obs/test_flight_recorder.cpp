// FlightRecorder contract tests: arming/disarming, flight lifecycle
// (begin_flight / stage_reply / take_pending / origin gating), the bounded
// ring's drop-oldest overflow with eviction-stable cursors and draining
// takes, epoch-relative timestamps, shared texts and packet images that
// render exactly the recorded bytes, and the pcapng / Chrome-trace
// exporters' framing.
#include "ecnprobe/obs/flight.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>

#include "ecnprobe/obs/flight_export.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/datagram.hpp"

namespace ecnprobe::obs {
namespace {

using util::SimTime;

FlightEvent sample_event(int probe, SpanEvent type, std::vector<std::uint8_t> wire) {
  FlightEvent event;
  event.key = {3, probe, 0};
  event.type = type;
  event.time = SimTime::from_nanos(1'500'000'123);
  event.layer = Layer::Host;
  event.node = SharedBytes("vp-test");
  event.node_addr = 0x0a000001;
  event.detail = SharedBytes("dst=10.0.0.2");
  event.set_wire(wire);
  return event;
}

TEST(FlightRecorder, DisarmedIsInert) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.armed());
  EXPECT_EQ(recorder.begin_flight(false), 0u);
  recorder.record(1, SpanEvent::ProbeSent, SimTime::zero(), Layer::Host, "n", 0, "d");
  recorder.record_here(SpanEvent::Timeout, SimTime::zero(), Layer::App, "n", 0, "d");
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.take_pending().flight, 0u);
}

TEST(FlightRecorder, FlightLifecycleAndOriginGating) {
  FlightRecorder recorder;
  recorder.arm(64);
  recorder.set_trace(7);
  recorder.set_probe(2);
  recorder.set_seq(1);

  const auto flight = recorder.begin_flight(/*retransmit=*/true);
  EXPECT_EQ(flight, 1u);
  const auto pending = recorder.take_pending();
  EXPECT_EQ(pending.flight, flight);
  EXPECT_TRUE(pending.retransmit);
  EXPECT_FALSE(pending.is_reply);
  EXPECT_EQ(recorder.take_pending().flight, 0u);  // consumed

  recorder.set_flight_origin(flight, 42);
  EXPECT_TRUE(recorder.flight_origin_is(flight, 42));
  EXPECT_FALSE(recorder.flight_origin_is(flight, 43));
  EXPECT_FALSE(recorder.flight_origin_is(999, 42));  // unknown flight

  recorder.record(flight, SpanEvent::ProbeSent, SimTime::from_nanos(10), Layer::Host,
                  "vp", 1, "detail", {0x45, 0x00});
  const auto events = recorder.take_since(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, (SpanKey{7, 2, 1}));  // context captured at begin_flight
  EXPECT_EQ(events[0].wire(), (std::vector<std::uint8_t>{0x45, 0x00}));

  // Replies inherit the request's flight and carry no retransmit flag.
  recorder.stage_reply(flight);
  const auto reply = recorder.take_pending();
  EXPECT_TRUE(reply.is_reply);
  EXPECT_EQ(reply.flight, flight);
}

TEST(FlightRecorder, UnknownFlightAndStaleStragglersAreIgnored) {
  FlightRecorder recorder;
  recorder.arm(8);
  recorder.set_trace(0);
  const auto flight = recorder.begin_flight(false);
  recorder.set_trace(1);  // trace boundary clears the flight table
  recorder.record(flight, SpanEvent::HopForward, SimTime::zero(), Layer::Router, "r", 0,
                  "ttl=3");
  EXPECT_EQ(recorder.size(), 0u);
  // And flight ids restart per trace, keeping worker sequences aligned.
  EXPECT_EQ(recorder.begin_flight(false), 1u);
}

TEST(FlightRecorder, TimestampsAreEpochRelative) {
  FlightRecorder recorder;
  recorder.arm(8);
  // A shard whose clock already advanced to 5s starts a new trace epoch:
  // recorded times must be offsets from the epoch, not absolute.
  recorder.set_trace(4, SimTime::from_nanos(5'000'000'000));
  recorder.begin_flight(false);
  recorder.record(1, SpanEvent::ProbeSent, SimTime::from_nanos(5'000'000'250),
                  Layer::Host, "vp", 0, "d");
  const auto events = recorder.take_since(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time.count_nanos(), 250);
}

TEST(FlightRecorder, RingDropsOldestAndCursorsSurviveEviction) {
  FlightRecorder recorder;
  recorder.arm(4);
  recorder.set_trace(0);
  recorder.begin_flight(false);
  const auto record = [&recorder](int from, int to) {
    for (int i = from; i < to; ++i) {
      recorder.record(1, SpanEvent::HopForward, SimTime::from_nanos(i), Layer::Router, "r",
                      0, std::to_string(i));
    }
  };
  record(0, 6);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 2u);
  EXPECT_EQ(recorder.cursor(), 6u);

  // A mark taken mid-stream still slices correctly after eviction, and the
  // take empties the ring without moving the cursor.
  const auto tail = recorder.take_since(5);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].detail.view(), "5");
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.cursor(), 6u);
  EXPECT_TRUE(recorder.take_since(6).empty());

  // After the take the ring evicts the same way: a mark older than what
  // survives returns the newest four. The end of a packet's story outlives
  // overflow.
  record(6, 12);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 4u);
  EXPECT_EQ(recorder.cursor(), 12u);
  const auto survivors = recorder.take_since(0);
  ASSERT_EQ(survivors.size(), 4u);
  EXPECT_EQ(survivors.front().detail.view(), "8");
  EXPECT_EQ(survivors.back().detail.view(), "11");
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_TRUE(recorder.take_since(recorder.cursor()).empty());
}

TEST(FlightRecorder, TextsAreInternedOncePerRecorderNulsIncluded) {
  FlightRecorder recorder;
  recorder.arm(16);
  recorder.set_trace(0);
  const auto flight = recorder.begin_flight(false);
  const std::string nul_detail("ab\0cd", 5);
  for (int i = 0; i < 3; ++i) {
    recorder.record(flight, SpanEvent::HopForward, SimTime::zero(), Layer::Router,
                    std::string("r") + "1", 0, nul_detail);
  }
  recorder.record_here(SpanEvent::Timeout, SimTime::zero(), Layer::App, "r1", 0, "");
  const auto events = recorder.take_since(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].detail.view(), nul_detail);
  for (const auto& event : events) {
    EXPECT_EQ(event.node.view(), "r1");
    EXPECT_TRUE(event.node.shares_with(events[0].node));
  }
  EXPECT_TRUE(events[2].detail.shares_with(events[0].detail));
  EXPECT_TRUE(events[3].detail.empty());
}

/// One random step along a flight's path. The packet keeps its image
/// through TTL decrements and ECN/DSCP rewrites; everything else changes
/// bytes outside TOS, TTL and the header checksum, or is too short to have
/// them.
enum class Step { Send, Hop, Rewrite, Corrupt, IcmpQuote, Short };

struct Flight {
  std::uint32_t id = 0;
  wire::Datagram dgram;
  std::vector<std::uint8_t> last;  ///< bytes of the flight's previous record
};

/// Whether the spec lets `wire` share the image of `last`: equal length of
/// at least 12 bytes, equal everywhere but bytes 1, 8, 10 and 11.
bool shareable(const std::vector<std::uint8_t>& last,
               const std::vector<std::uint8_t>& wire) {
  if (last.size() != wire.size() || wire.size() < 12) return false;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i != 1 && i != 8 && i != 10 && i != 11 && last[i] != wire[i]) return false;
  }
  return true;
}

TEST(FlightRecorder, EveryEventRendersItsRecordedBytesAndUnchangedPathsShareOneImage) {
  util::Rng rng(20151028);
  FlightRecorder recorder;
  recorder.arm(1 << 16);
  recorder.set_trace(0);
  std::vector<Flight> flights;
  std::vector<std::vector<std::uint8_t>> recorded;  ///< record() inputs, in order
  std::vector<std::uint32_t> flight_of;              ///< index into flights
  std::vector<bool> expect_shared;                   ///< with the flight's last record
  std::map<std::uint32_t, std::vector<Step>> steps;  ///< per flight

  for (int round = 0; round < 3000; ++round) {
    Step step = static_cast<Step>(rng.next_below(6));
    if (flights.empty() || step == Step::Send) {
      Flight flight;
      flight.id = recorder.begin_flight(false);
      recorder.take_pending();
      std::vector<std::uint8_t> payload(8 + rng.next_below(40));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
      flight.dgram = wire::make_udp_datagram(
          wire::Ipv4Address(10, 0, 0, 1),
          wire::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<std::uint16_t>(40000 + round), 123, payload,
          static_cast<wire::Ecn>(rng.next_below(4)),
          static_cast<std::uint8_t>(2 + rng.next_below(60)));
      flights.push_back(std::move(flight));
      step = Step::Send;
    }
    auto& flight =
        step == Step::Send ? flights.back() : flights[rng.next_below(flights.size())];
    auto& dgram = flight.dgram;
    std::vector<std::uint8_t> wire;
    switch (step) {
      case Step::Send:
        wire = dgram.encode();
        break;
      case Step::Hop:
        if (dgram.ip.ttl > 1) --dgram.ip.ttl;
        wire = dgram.encode();
        break;
      case Step::Rewrite:
        dgram.ip.ecn = static_cast<wire::Ecn>(rng.next_below(4));
        dgram.ip.dscp = static_cast<std::uint8_t>(rng.next_below(64));
        wire = dgram.encode();
        break;
      case Step::Corrupt:
        dgram.payload[rng.next_below(dgram.payload.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
        wire = dgram.encode();
        break;
      case Step::IcmpQuote:
        dgram = wire::make_time_exceeded(wire::Ipv4Address(12, 0, 0, 1), dgram);
        wire = dgram.encode();
        break;
      case Step::Short:
        wire.resize(1 + rng.next_below(11));
        for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_below(256));
        break;
    }
    expect_shared.push_back(shareable(flight.last, wire));
    flight.last = wire;
    flight_of.push_back(static_cast<std::uint32_t>(&flight - flights.data()));
    steps[flight.id].push_back(step);
    recorded.push_back(wire);
    recorder.record(flight.id, SpanEvent::HopForward, SimTime::from_nanos(round),
                    Layer::Router, "r", 0, "", std::move(wire));
  }

  const auto events = recorder.take_since(0);
  ASSERT_EQ(events.size(), recorded.size());
  std::map<std::uint32_t, std::size_t> previous;  ///< flight -> its last event index
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(events[i].wire(), recorded[i]);
    EXPECT_EQ(events[i].wire_size(), recorded[i].size());
    std::string appended = "x";
    events[i].append_wire(appended);
    EXPECT_EQ(appended.substr(1), std::string(recorded[i].begin(), recorded[i].end()));
    const auto flight = flight_of[i];
    if (const auto it = previous.find(flight); it != previous.end()) {
      EXPECT_EQ(events[i].image.shares_with(events[it->second].image), expect_shared[i]);
    } else {
      EXPECT_FALSE(expect_shared[i]);
    }
    previous[flight] = i;
  }

  // A path of TTL decrements and ECN rewrites alone is one image.
  std::size_t unchanged_paths = 0;
  std::map<std::uint32_t, std::set<const void*>> images;
  for (std::size_t i = 0; i < events.size(); ++i) {
    images[flights[flight_of[i]].id].insert(events[i].image.view().data());
  }
  for (const auto& [id, path] : steps) {
    const bool unchanged = std::all_of(path.begin() + 1, path.end(), [](Step s) {
      return s == Step::Hop || s == Step::Rewrite;
    });
    if (!unchanged || path.size() < 2) continue;
    ++unchanged_paths;
    EXPECT_EQ(images[id].size(), 1u) << "flight " << id;
  }
  EXPECT_GT(unchanged_paths, 10u);
}

/// Feeds one recorder a fixed mix of sends, hops, rewrites, drops, ICMP
/// quotes and timeouts across two traces.
std::vector<FlightEvent> record_fixed_story() {
  FlightRecorder recorder;
  recorder.arm(256);
  for (int trace = 0; trace < 2; ++trace) {
    recorder.set_trace(trace, SimTime::from_nanos(trace * 1000));
    recorder.set_probe(trace + 4);
    const std::vector<std::uint8_t> payload(48, 0xab);
    auto dgram = wire::make_udp_datagram(wire::Ipv4Address(10, 0, 0, 1),
                                         wire::Ipv4Address(11, 0, 0, 2), 40000, 123,
                                         payload, wire::Ecn::Ect0);
    const auto flight = recorder.begin_flight(false);
    recorder.record(flight, SpanEvent::ProbeSent, SimTime::from_nanos(1), Layer::Host, "vp",
                    1, "dst=11.0.0.2", dgram.encode());
    for (int hop = 0; hop < 5; ++hop) {
      --dgram.ip.ttl;
      recorder.record(flight, SpanEvent::HopForward, SimTime::from_nanos(10 + hop),
                      Layer::Router, "r" + std::to_string(hop), 2, "ttl", dgram.encode());
    }
    dgram.ip.ecn = wire::Ecn::NotEct;
    recorder.record(flight, SpanEvent::EcnRewritten, SimTime::from_nanos(20), Layer::Policy,
                    "r4", 2, "ECT(0)->not-ECT", dgram.encode());
    const auto icmp = wire::make_time_exceeded(wire::Ipv4Address(12, 0, 0, 1), dgram);
    recorder.record(flight, SpanEvent::IcmpGenerated, SimTime::from_nanos(30),
                    Layer::Router, "r4", 2, "time-exceeded", icmp.encode());
    recorder.record_here(SpanEvent::Timeout, SimTime::from_nanos(40), Layer::Measure, "vp",
                         0, "test=udp");
  }
  return recorder.take_since(0);
}

TEST(FlightRecorder, RecordersFedTheSameCallsRecordEqualEvents) {
  const auto a = record_fixed_story();
  const auto b = record_fixed_story();
  ASSERT_EQ(a.size(), 18u);
  // Two recorders hold their texts and images in blocks of their own, so
  // equality must be by content.
  EXPECT_FALSE(a[1].image.shares_with(b[1].image));
  EXPECT_FALSE(a[1].node.shares_with(b[1].node));
  EXPECT_TRUE(a == b);

  // An event rebuilt from its rendered bytes, in an image of its own,
  // still compares equal; a changed TTL byte does not.
  auto copy = a[3];
  copy.set_wire(a[3].wire());
  EXPECT_FALSE(copy.image.shares_with(a[3].image));
  EXPECT_EQ(copy, a[3]);
  copy.own_bytes[1] ^= 1;
  EXPECT_NE(copy, a[3]);
}

TEST(FlightExport, PcapngFramesAreWellFormed) {
  std::vector<FlightEvent> events;
  events.push_back(sample_event(0, SpanEvent::ProbeSent, {0x45, 0x00, 0x00, 0x14}));
  events.push_back(sample_event(0, SpanEvent::Timeout, {}));  // no wire: skipped
  events.push_back(sample_event(1, SpanEvent::PolicyDrop, {0x45, 0x00, 0x00, 0x1c}));

  std::ostringstream os;
  const auto packets = write_pcapng(os, events);
  EXPECT_EQ(packets, 2u);
  const auto bytes = os.str();
  // Section Header Block: type 0x0a0d0d0a then the little-endian byte-order
  // magic 0x1a2b3c4d.
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]), 0x0a);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[1]), 0x0d);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[2]), 0x0d);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[3]), 0x0a);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[8]), 0x4d);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[11]), 0x1a);
  // The per-packet comment names the span and the emitting node.
  EXPECT_NE(bytes.find("trace=3 probe=0 seq=0 event=probe-sent"), std::string::npos);
  EXPECT_NE(bytes.find("node=vp-test"), std::string::npos);

  // Deterministic: the same events encode to the same bytes.
  std::ostringstream again;
  write_pcapng(again, events);
  EXPECT_EQ(bytes, again.str());
}

TEST(FlightExport, ChromeTraceJsonCoversWirelessEvents) {
  std::vector<FlightEvent> events;
  events.push_back(sample_event(0, SpanEvent::ProbeSent, {0x45}));
  events.push_back(sample_event(0, SpanEvent::Timeout, {}));

  const auto json = to_chrome_trace_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"probe-sent\""), std::string::npos);
  // Timeouts have no packet but still appear on the timeline.
  EXPECT_NE(json.find("\"timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  // Exact-nanosecond timestamps: 1500000123 ns = 1500000.123 us.
  EXPECT_NE(json.find("1500000.123"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::obs
