#include "ecnprobe/obs/flight.hpp"

namespace ecnprobe::obs {

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
  pending_.reset();
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
  // map must be cleared *before* the arena rewind poisons its nodes.
  flights_.clear();
  flight_arena_.reset();
  pending_.reset();
  next_flight_ = 1;
}

std::uint32_t FlightRecorder::begin_flight(bool retransmit) {
  if (!armed_) return 0;
  const std::uint32_t id = next_flight_++;
  flights_[id] = FlightEntry{context(), 0xffffffff};
  pending_ = PendingSend{id, retransmit, false};
  return id;
}

void FlightRecorder::stage_reply(std::uint32_t flight) {
  if (!armed_ || flight == 0) return;
  pending_ = PendingSend{flight, false, true};
}

std::optional<FlightRecorder::PendingSend> FlightRecorder::take_pending() {
  auto out = pending_;
  pending_.reset();
  return out;
}

void FlightRecorder::set_flight_origin(std::uint32_t flight, std::uint32_t node_id) {
  const auto it = flights_.find(flight);
  if (it != flights_.end()) it->second.origin_node = node_id;
}

bool FlightRecorder::flight_origin_is(std::uint32_t flight, std::uint32_t node_id) const {
  const auto it = flights_.find(flight);
  return it != flights_.end() && it->second.origin_node == node_id;
}

void FlightRecorder::record(std::uint32_t flight, SpanEvent type, util::SimTime time,
                            Layer layer, std::string_view node, std::uint32_t node_addr,
                            std::string detail, std::vector<std::uint8_t> wire) {
  if (!armed_ || flight == 0) return;
  const auto it = flights_.find(flight);
  if (it == flights_.end()) return;  // straggler from before the trace boundary
  FlightEvent event;
  event.key = it->second.key;
  event.type = type;
  event.time = util::SimTime::zero() + (time - epoch_base_);
  event.layer = layer;
  event.node.assign(node);
  event.node_addr = node_addr;
  event.detail = std::move(detail);
  event.wire = std::move(wire);
  push(std::move(event));
}

void FlightRecorder::record_here(SpanEvent type, util::SimTime time, Layer layer,
                                 std::string_view node, std::uint32_t node_addr,
                                 std::string detail) {
  if (!armed_) return;
  FlightEvent event;
  event.key = context();
  event.type = type;
  event.time = util::SimTime::zero() + (time - epoch_base_);
  event.layer = layer;
  event.node.assign(node);
  event.node_addr = node_addr;
  event.detail = std::move(detail);
  push(std::move(event));
}

void FlightRecorder::push(FlightEvent event) {
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++base_;
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

std::vector<FlightEvent> FlightRecorder::collect_since(std::size_t mark) const {
  std::vector<FlightEvent> out;
  const std::size_t from = mark > base_ ? mark - base_ : 0;
  if (from >= ring_.size()) return out;
  out.reserve(ring_.size() - from);
  for (std::size_t i = from; i < ring_.size(); ++i) out.push_back(ring_[i]);
  return out;
}

}  // namespace ecnprobe::obs
