#include "ecnprobe/obs/flight.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <new>

namespace ecnprobe::obs {

SharedBytes::SharedBytes(std::string_view bytes) {
  if (bytes.empty()) return;
  rep_ = new (::operator new(sizeof(Rep) + bytes.size())) Rep;
  rep_->size = bytes.size();
  std::memcpy(reinterpret_cast<char*>(rep_ + 1), bytes.data(), bytes.size());
}

SharedBytes::~SharedBytes() {
  if (rep_ != nullptr && --rep_->refs == 0) {
    rep_->~Rep();
    ::operator delete(rep_);
  }
}

namespace {

/// Bytes up to and including the last offset a hop rewrites.
constexpr std::size_t kOwnSpan = FlightEvent::kOwnOffsets.back() + 1;

std::string_view as_chars(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// True when `wire` equals `image` everywhere but FlightEvent::kOwnOffsets,
/// so the event can share the image.
bool differs_only_in_own_bytes(const SharedBytes& image,
                               const std::vector<std::uint8_t>& wire) {
  const std::string_view old = image.view();
  if (old.size() != wire.size() || wire.size() < kOwnSpan) return false;
  const auto same = [&](std::size_t from, std::size_t to) {
    return std::memcmp(old.data() + from, wire.data() + from, to - from) == 0;
  };
  std::size_t from = 0;
  for (const std::size_t own : FlightEvent::kOwnOffsets) {
    if (!same(from, own)) return false;
    from = own + 1;
  }
  return same(from, wire.size());
}

/// The bytes at FlightEvent::kOwnOffsets; zeros when `wire` is too short.
std::array<std::uint8_t, 4> own_bytes_of(std::span<const std::uint8_t> wire) {
  std::array<std::uint8_t, 4> own{};
  if (wire.size() >= kOwnSpan) {
    for (std::size_t i = 0; i < own.size(); ++i) own[i] = wire[FlightEvent::kOwnOffsets[i]];
  }
  return own;
}

/// Writes `own` at FlightEvent::kOwnOffsets into the image rendered at
/// `out[at...]`; an image too short to have those bytes stays as it is.
template <typename Bytes>
void write_own_bytes(Bytes& out, std::size_t at, const std::array<std::uint8_t, 4>& own) {
  if (out.size() - at < kOwnSpan) return;
  for (std::size_t i = 0; i < own.size(); ++i) {
    out[at + FlightEvent::kOwnOffsets[i]] = static_cast<typename Bytes::value_type>(own[i]);
  }
}

}  // namespace

std::vector<std::uint8_t> FlightEvent::wire() const {
  const std::string_view bytes = image.view();
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  write_own_bytes(out, 0, own_bytes);
  return out;
}

void FlightEvent::append_wire(std::string& out) const {
  const std::size_t at = out.size();
  out += image.view();
  write_own_bytes(out, at, own_bytes);
}

void FlightEvent::set_wire(std::span<const std::uint8_t> bytes) {
  image = SharedBytes(as_chars(bytes));
  own_bytes = own_bytes_of(bytes);
}

bool FlightEvent::operator==(const FlightEvent& other) const {
  return key == other.key && type == other.type && layer == other.layer &&
         time == other.time && node_addr == other.node_addr && node == other.node &&
         detail == other.detail && wire() == other.wire();
}

std::string_view to_string(SpanEvent event) {
  switch (event) {
    case SpanEvent::ProbeSent: return "probe-sent";
    case SpanEvent::HopForward: return "hop-forward";
    case SpanEvent::EcnRewritten: return "ecn-rewritten";
    case SpanEvent::PolicyDrop: return "policy-drop";
    case SpanEvent::IcmpGenerated: return "icmp-generated";
    case SpanEvent::ReplyReceived: return "reply-received";
    case SpanEvent::Timeout: return "timeout";
    case SpanEvent::Retransmit: return "retransmit";
  }
  return "?";
}

void FlightRecorder::arm(std::size_t capacity) {
  enabled_ = capacity > 0;
  armed_ = enabled_ && !suppressed_;
  capacity_ = capacity;
}

void FlightRecorder::disarm() {
  armed_ = false;
  enabled_ = false;
  suppressed_ = false;
  capacity_ = 0;
  flights_.clear();
  flight_arena_.reset();
  pending_ = {};
  texts_.clear();
  ring_.clear();
  base_ = 0;
  dropped_ = 0;
}

void FlightRecorder::set_trace(int trace, util::SimTime epoch_base) {
  trace_ = trace;
  probe_ = -1;
  seq_ = 0;
  epoch_base_ = epoch_base;
  // The simulator is quiescent at trace boundaries: no packet from the old
  // trace is still in flight, so the table can restart. Restarting the id
  // counter keeps every worker's per-trace flight sequence identical. The
  // map must be cleared *before* the arena rewind poisons its nodes; the
  // clear also lets go of each flight's last packet image.
  flights_.clear();
  flight_arena_.reset();
  pending_ = {};
  next_flight_ = 1;
}

std::uint32_t FlightRecorder::begin_flight(bool retransmit) {
  if (!armed_) return 0;
  const std::uint32_t id = next_flight_++;
  flights_[id] = FlightEntry{context(), 0xffffffff, {}};
  pending_ = PendingSend{id, retransmit, false};
  return id;
}

void FlightRecorder::stage_reply(std::uint32_t flight) {
  if (!armed_ || flight == 0) return;
  pending_ = PendingSend{flight, false, true};
}

FlightRecorder::PendingSend FlightRecorder::take_pending() {
  return std::exchange(pending_, PendingSend{});
}

void FlightRecorder::set_flight_origin(std::uint32_t flight, std::uint32_t node_id) {
  const auto it = flights_.find(flight);
  if (it != flights_.end()) it->second.origin_node = node_id;
}

bool FlightRecorder::flight_origin_is(std::uint32_t flight, std::uint32_t node_id) const {
  const auto it = flights_.find(flight);
  return it != flights_.end() && it->second.origin_node == node_id;
}

FlightEvent FlightRecorder::make_event(const SpanKey& key, SpanEvent type,
                                       util::SimTime time, Layer layer,
                                       std::string_view node, std::uint32_t node_addr,
                                       std::string_view detail) {
  FlightEvent event;
  event.key = key;
  event.type = type;
  event.time = util::SimTime::zero() + (time - epoch_base_);
  event.layer = layer;
  event.node = intern(node);
  event.node_addr = node_addr;
  event.detail = intern(detail);
  return event;
}

SharedBytes FlightRecorder::intern(std::string_view text) {
  if (text.empty()) return {};
  if (const auto it = texts_.find(text); it != texts_.end()) return it->second;
  SharedBytes shared(text);
  texts_.emplace(shared.view(), shared);
  return shared;
}

void FlightRecorder::record(std::uint32_t flight, SpanEvent type, util::SimTime time,
                            Layer layer, std::string_view node, std::uint32_t node_addr,
                            std::string_view detail, std::vector<std::uint8_t> wire) {
  if (!armed_ || flight == 0) return;
  const auto it = flights_.find(flight);
  if (it == flights_.end()) return;  // straggler from before the trace boundary
  FlightEvent event =
      make_event(it->second.key, type, time, layer, node, node_addr, detail);
  if (!wire.empty()) {
    auto& last = it->second.image;
    if (!differs_only_in_own_bytes(last, wire)) last = SharedBytes(as_chars(wire));
    event.image = last;
    event.own_bytes = own_bytes_of(wire);
  }
  push(std::move(event));
}

void FlightRecorder::record_here(SpanEvent type, util::SimTime time, Layer layer,
                                 std::string_view node, std::uint32_t node_addr,
                                 std::string_view detail) {
  if (!armed_) return;
  push(make_event(context(), type, time, layer, node, node_addr, detail));
}

void FlightRecorder::push(FlightEvent event) {
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++base_;
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

std::vector<FlightEvent> FlightRecorder::take_since(std::size_t mark) {
  std::vector<FlightEvent> out;
  const std::size_t from = mark > base_ ? mark - base_ : 0;
  if (from < ring_.size()) {
    out.reserve(ring_.size() - from);
    std::move(ring_.begin() + static_cast<std::ptrdiff_t>(from), ring_.end(),
              std::back_inserter(out));
  }
  base_ += ring_.size();
  ring_.clear();
  return out;
}

}  // namespace ecnprobe::obs
