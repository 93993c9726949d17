// The flight recorder: a bounded ring-buffer sink for per-packet span
// events. Where the drop ledger answers "how many packets died of what",
// the recorder answers "what happened to *this* probe": every instrumented
// packet carries a flight id, and each layer it traverses appends an event
// -- sent, forwarded at a hop, ECN-rewritten, dropped by a policy, quoted
// into an ICMP error, delivered back, timed out -- keyed by
// {trace, probe, seq} with the sim-clock timestamp and the full wire bytes
// at that point in the path.
//
// An event holds no bytes of its own. Its node name and detail are texts
// the recorder interns once and every event naming them shares. Its wire
// bytes are a packet image shared along the flight's path plus the three
// IPv4 fields a hop changes (TOS, TTL, header checksum): a probe crossing
// fifteen routers is one image and fifteen 4-byte patches, not fifteen
// encode() copies. Exporters render the bytes back exactly as recorded.
//
// Single-threaded by design, like the ledger: one recorder per world, one
// world per thread. Parallel campaign workers each record into their own
// world's recorder; per-trace slices are collected at the trace's
// quiescence barrier and merged in plan order, so the combined event
// stream is byte-identical to a sequential run at any worker count.
//
// Disabled (the default) the recorder is a single bool test on the hot
// path: no allocation, no encoding, no RNG interaction. Recording is
// observation-only either way -- it makes no RNG draws -- so arming it
// cannot perturb simulation outcomes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecnprobe/obs/layer.hpp"
#include "ecnprobe/util/arena.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::obs {

/// What happened to the packet (or the probe waiting for it).
enum class SpanEvent : std::uint8_t {
  ProbeSent,     ///< instrumented probe left its origin host
  HopForward,    ///< a router forwarded it (TTL already decremented)
  EcnRewritten,  ///< a middlebox changed the ECN codepoint in flight
  PolicyDrop,    ///< discarded: policy verdict, link loss/down, TTL, filter
  IcmpGenerated, ///< a router generated an ICMP error quoting it
  ReplyReceived, ///< a flight-stamped packet arrived back at its origin
  Timeout,       ///< the probe gave up waiting
  Retransmit,    ///< a retry left the origin host
};
inline constexpr std::size_t kSpanEventCount = 8;

std::string_view to_string(SpanEvent event);

/// The span a packet belongs to: which campaign trace, which probe within
/// the trace (campaign: server index * 4 + step; traceroute: the TTL), and
/// which attempt of that probe.
struct SpanKey {
  int trace = -1;
  int probe = -1;
  int seq = 0;

  bool operator==(const SpanKey&) const = default;
};

/// An immutable byte string shared by reference count: copies share one
/// heap block. The count is atomic because a worker's events are merged
/// and freed on another thread while its recorder still hands out the
/// same blocks. Any bytes, embedded NULs included; empty holds no block.
class SharedBytes {
public:
  SharedBytes() = default;
  explicit SharedBytes(std::string_view bytes);
  SharedBytes(const SharedBytes& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~SharedBytes();

  std::string_view view() const {
    return rep_ == nullptr ? std::string_view()
                           : std::string_view(reinterpret_cast<const char*>(rep_ + 1),
                                              rep_->size);
  }
  std::size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }
  bool empty() const { return rep_ == nullptr; }

  /// True when both hold the same block (not merely equal bytes).
  bool shares_with(const SharedBytes& other) const { return rep_ == other.rep_; }

  /// Content equality: what the bytes are, not where they live.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.view() == b.view();
  }

private:
  struct Rep {  // the bytes follow the header in the same allocation
    std::atomic<std::size_t> refs{1};
    std::size_t size = 0;
  };
  Rep* rep_ = nullptr;
};

/// One recorded span event. Deterministic given the world seed; copying
/// one copies three pointers.
struct FlightEvent {
  /// IPv4 header offsets a hop rewrites: TOS (ECN), TTL, header checksum.
  /// Events along one path share an image that differs only there.
  static constexpr std::array<std::size_t, 4> kOwnOffsets{1, 8, 10, 11};

  SpanKey key;
  SpanEvent type = SpanEvent::ProbeSent;
  Layer layer = Layer::Measure;
  util::SimTime time;
  std::uint32_t node_addr = 0;  ///< emitting node address (0 if none)
  /// This event's bytes at kOwnOffsets, written over `image` when the wire
  /// bytes are rendered; unused when the image is shorter than 12 bytes.
  std::array<std::uint8_t, 4> own_bytes{};
  SharedBytes node;    ///< emitting node name
  SharedBytes detail;  ///< cause / codepoints / outcome text
  SharedBytes image;   ///< the packet, shared along its path (empty for timeouts)

  /// The wire bytes as recorded: `image` with `own_bytes` written over it.
  std::vector<std::uint8_t> wire() const;
  /// Appends the same bytes to `out`.
  void append_wire(std::string& out) const;
  std::size_t wire_size() const { return image.size(); }
  /// Makes `bytes` the event's wire bytes, in an image of its own.
  void set_wire(std::span<const std::uint8_t> bytes);

  /// Compares what the event renders -- texts and wire bytes by content --
  /// so equal recordings compare equal whichever blocks they share.
  bool operator==(const FlightEvent& other) const;
};

class FlightRecorder {
public:
  /// Enables recording with the given ring capacity (events). When the
  /// ring is full the oldest event is evicted -- the end of a packet's
  /// story (the drop, the timeout) survives overflow, and the campaign
  /// executors drain the ring every trace so overflow is rare in practice.
  void arm(std::size_t capacity);
  void disarm();

  /// The hot-path guard: every datapath call site tests this one bool
  /// before touching the recorder, so a disarmed recorder costs a single
  /// predictable branch per packet.
  bool armed() const { return armed_; }

  // -- span context ---------------------------------------------------------
  // The measure layer sets trace/probe; clients set seq per attempt. The
  // context is captured into the flight table at begin_flight() time.

  /// Starts a trace epoch: stamps subsequent flights with `trace` and
  /// clears the flight table (a quiescent simulator has no packets in
  /// flight across a trace boundary) so flight ids restart from 1 -- which
  /// keeps every worker's per-trace id sequence identical. `epoch_base` is
  /// the sim clock at the epoch boundary: recorded timestamps are relative
  /// to it, because the absolute clock depends on which traces an executor
  /// ran before this one (a parallel shard only ages by its own share) and
  /// would break byte-identical sequential-vs-sharded recordings.
  void set_trace(int trace, util::SimTime epoch_base = util::SimTime::zero());

  /// Head-based telemetry sampling: an armed recorder on an unsampled
  /// trace records nothing (the trace's story lives in the sketches
  /// instead). Folded into the same `armed_` bool the hot path already
  /// tests, so suppression adds no per-packet cost. World sets this right
  /// after set_trace(); exact mode always passes true.
  void set_trace_sampled(bool sampled) {
    suppressed_ = !sampled;
    armed_ = enabled_ && !suppressed_;
  }

  void set_probe(int probe) { probe_ = probe; }
  void set_seq(int seq) { seq_ = seq; }
  SpanKey context() const { return {trace_, probe_, seq_}; }

  // -- flight lifecycle -----------------------------------------------------

  /// Allocates a flight id bound to the current context and stages it for
  /// the next Host::send_datagram on this world, which stamps the datagram
  /// and records the ProbeSent/Retransmit event with the final wire bytes
  /// (IP id included). Returns the id so clients can key timeout events.
  std::uint32_t begin_flight(bool retransmit);

  /// Stages an existing flight id for the next send *without* a send
  /// event: server replies inherit the request's flight so the return path
  /// (hops, rewrites, drops) is attributed to the same span.
  void stage_reply(std::uint32_t flight);

  struct PendingSend {
    std::uint32_t flight = 0;  ///< 0: nothing staged
    bool retransmit = false;
    bool is_reply = false;
  };
  /// Consumes the staged send (flight 0 if none). Called by
  /// Host::send_datagram.
  PendingSend take_pending();

  /// Marks `node` as the flight's origin; ReplyReceived fires only when a
  /// stamped packet arrives back *there* (not at the probed server).
  void set_flight_origin(std::uint32_t flight, std::uint32_t node_id);
  bool flight_origin_is(std::uint32_t flight, std::uint32_t node_id) const;

  // -- event sink -----------------------------------------------------------

  /// Records an event against a stamped packet; resolves the span key from
  /// the flight table. No-op when disarmed, unstamped (flight 0), or the
  /// flight is unknown (a straggler from before the last trace boundary).
  /// `node` and `detail` are interned. `wire` shares the flight's last
  /// image when it differs from it only at FlightEvent::kOwnOffsets;
  /// otherwise it becomes the flight's new image (an ICMP quote, a
  /// corrupted payload, a reply, anything shorter than 12 bytes).
  void record(std::uint32_t flight, SpanEvent type, util::SimTime time, Layer layer,
              std::string_view node, std::uint32_t node_addr, std::string_view detail,
              std::vector<std::uint8_t> wire = {});

  /// Records an event keyed by the current context -- for probe-level
  /// outcomes (timeouts) that have no packet to hang the event on.
  void record_here(SpanEvent type, util::SimTime time, Layer layer,
                   std::string_view node, std::uint32_t node_addr, std::string_view detail);

  // -- per-trace slicing ----------------------------------------------------

  /// Monotonic position in the event stream (survives ring eviction and
  /// draining). World::mark_obs_baseline stores it; take_since slices
  /// from it.
  std::size_t cursor() const { return base_ + ring_.size(); }

  /// Moves out the events recorded since `mark`, oldest first, and empties
  /// the ring: what came before `mark` was already taken. Events evicted
  /// by ring overflow are gone; dropped_events() says how many, ever.
  std::vector<FlightEvent> take_since(std::size_t mark);

  /// Events evicted by ring overflow since arm().
  std::uint64_t dropped_events() const { return dropped_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }

private:
  struct FlightEntry {
    SpanKey key;
    std::uint32_t origin_node = 0xffffffff;
    SharedBytes image;  ///< the flight's last recorded packet image
  };
  /// Flight-table nodes come from an arena rewound at each trace boundary:
  /// a campaign of a million traces churns the table constantly, and the
  /// arena caps that at zero heap traffic once the first trace warmed it.
  using FlightMap =
      std::map<std::uint32_t, FlightEntry, std::less<std::uint32_t>,
               util::ArenaAllocator<std::pair<const std::uint32_t, FlightEntry>>>;

  /// An event stamped with `key` and interned texts, no wire bytes yet.
  FlightEvent make_event(const SpanKey& key, SpanEvent type, util::SimTime time,
                         Layer layer, std::string_view node, std::uint32_t node_addr,
                         std::string_view detail);
  /// The recorder's one shared copy of `text` (looked up before inserting).
  SharedBytes intern(std::string_view text);
  void push(FlightEvent event);

  bool armed_ = false;       ///< enabled_ && !suppressed_: the hot-path test
  bool enabled_ = false;     ///< arm() was called with capacity > 0
  bool suppressed_ = false;  ///< current trace sampled out of exact recording
  std::size_t capacity_ = 0;
  int trace_ = -1;
  int probe_ = -1;
  int seq_ = 0;
  std::uint32_t next_flight_ = 1;
  util::SimTime epoch_base_;  ///< recorded times are offsets from this
  util::Arena flight_arena_;  ///< declared before flights_: backs its nodes
  FlightMap flights_{
      util::ArenaAllocator<std::pair<const std::uint32_t, FlightEntry>>(flight_arena_)};
  PendingSend pending_;
  /// Node names and details, each held once; keys view their own values.
  std::unordered_map<std::string_view, SharedBytes> texts_;
  std::deque<FlightEvent> ring_;
  std::size_t base_ = 0;  ///< global index of ring_.front()
  std::uint64_t dropped_ = 0;
};

}  // namespace ecnprobe::obs
