#include "ecnprobe/netsim/policy.hpp"

#include <algorithm>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::netsim {

PolicyAction PacketPolicy::apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime now) {
  ++stats_.seen;
  const wire::Ecn before = dgram.ip.ecn;
  const PolicyAction action = do_apply(dgram, rng, now);
  if (action == PolicyAction::Drop) {
    ++stats_.dropped;
  } else if (dgram.ip.ecn != before) {
    ++stats_.modified;
  }
  return action;
}

std::string EcnBleachPolicy::name() const {
  return util::strf("ecn-bleach(p=%.2f)", prob_);
}

PolicyAction EcnBleachPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (wire::is_ect(dgram.ip.ecn) && rng.bernoulli(prob_)) {
    dgram.ip.ecn = wire::Ecn::NotEct;
  }
  return PolicyAction::Pass;
}

std::string EctUdpDropPolicy::name() const { return "ect-udp-drop"; }

PolicyAction EctUdpDropPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (dgram.ip.protocol == wire::IpProto::Udp && wire::is_ect(dgram.ip.ecn) &&
      rng.bernoulli(prob_)) {
    return PolicyAction::Drop;
  }
  return PolicyAction::Pass;
}

std::string EctAnyDropPolicy::name() const { return "ect-any-drop"; }

PolicyAction EctAnyDropPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (wire::is_ect(dgram.ip.ecn) && rng.bernoulli(prob_)) return PolicyAction::Drop;
  return PolicyAction::Pass;
}

std::string TosSensitiveDropPolicy::name() const {
  return util::strf("tos-drop(p=%.3f)", prob_);
}

PolicyAction TosSensitiveDropPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (dgram.ip.tos_octet() != 0 && rng.bernoulli(prob_)) return PolicyAction::Drop;
  return PolicyAction::Pass;
}

PolicyAction MatchDropPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (match_.protocol && dgram.ip.protocol != *match_.protocol) return PolicyAction::Pass;
  if (match_.ect && wire::is_ect(dgram.ip.ecn) != *match_.ect) return PolicyAction::Pass;
  if (match_.src_prefix &&
      !dgram.ip.src.in_prefix(match_.src_prefix->first, match_.src_prefix->second)) {
    return PolicyAction::Pass;
  }
  return rng.bernoulli(match_.drop_prob) ? PolicyAction::Drop : PolicyAction::Pass;
}

std::string CongestionPolicy::name() const {
  return util::strf("congestion(mark=%.2f,drop=%.2f)", mark_prob_, drop_prob_);
}

PolicyAction CongestionPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng, util::SimTime /*now*/) {
  if (wire::is_ect(dgram.ip.ecn)) {
    if (overload_drop_prob_ > 0.0 && rng.bernoulli(overload_drop_prob_)) {
      return PolicyAction::Drop;
    }
    if (rng.bernoulli(mark_prob_)) dgram.ip.ecn = wire::Ecn::Ce;
    return PolicyAction::Pass;
  }
  return rng.bernoulli(drop_prob_) ? PolicyAction::Drop : PolicyAction::Pass;
}

PolicyAction GreylistUdpPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng,
                                         util::SimTime now) {
  if (dgram.ip.protocol != wire::IpProto::Udp) return PolicyAction::Pass;
  SourceState& state = sources_[dgram.ip.src.value()];
  if (state.packets == 0 || now - state.last > params_.idle_reset) {
    // Fresh (or expired) conntrack entry: draw this window's behaviour.
    state.packets = 0;
    const double u = rng.next_double();
    if (u < params_.flaky_prob) {
      state.threshold = 5 + static_cast<std::uint32_t>(rng.next_below(5));  // 5..9
    } else if (u < params_.flaky_prob + params_.dead_prob) {
      state.threshold = 1u << 20;  // never passes within a probe sequence
    } else {
      state.threshold = 0;
    }
  }
  state.last = now;
  ++state.packets;
  return state.packets > state.threshold ? PolicyAction::Pass : PolicyAction::Drop;
}

std::string BottleneckAqmPolicy::name() const {
  return util::strf("bottleneck-aqm(%.1fMbps)", params_.rate_bps / 1e6);
}

PolicyAction BottleneckAqmPolicy::do_apply(wire::Datagram& dgram, util::Rng& rng,
                                           util::SimTime now) {
  // Drain the virtual queue since the last packet.
  const double elapsed_s = (now - last_drain_).to_seconds();
  if (elapsed_s > 0.0) {
    backlog_bytes_ -= elapsed_s * params_.rate_bps / 8.0;
    if (backlog_bytes_ < 0.0) backlog_bytes_ = 0.0;
  }
  last_drain_ = now;

  const auto size = static_cast<double>(wire::Ipv4Header::kSize + dgram.payload.size());
  const auto capacity = static_cast<double>(params_.queue_capacity_bytes);
  const double occupancy = backlog_bytes_ / capacity;
  queue_stats_.peak_occupancy = std::max(queue_stats_.peak_occupancy, occupancy);

  // Hard overflow: nothing fits, ECN or not (RFC 3168: marking never
  // replaces drops once the queue is actually full).
  if (backlog_bytes_ + size > capacity) {
    ++queue_stats_.dropped_overflow;
    last_drop_cause_ = obs::DropCause::AqmOverflow;
    return PolicyAction::Drop;
  }

  // RED-style early action: linear probability ramp over the occupancy band.
  if (occupancy > params_.red_min_fraction) {
    const double band = params_.red_max_fraction - params_.red_min_fraction;
    const double p = band > 0.0
                         ? std::min(1.0, (occupancy - params_.red_min_fraction) / band)
                         : 1.0;
    if (rng.bernoulli(p)) {
      if (params_.ecn_enabled && wire::is_ect(dgram.ip.ecn)) {
        dgram.ip.ecn = wire::Ecn::Ce;  // signal instead of dropping
        ++queue_stats_.ce_marked;
      } else {
        ++queue_stats_.dropped_early;
        last_drop_cause_ = obs::DropCause::AqmEarly;
        return PolicyAction::Drop;
      }
    }
  }

  backlog_bytes_ += size;
  ++queue_stats_.enqueued;
  const double delay_s = backlog_bytes_ / (params_.rate_bps / 8.0);
  pending_delay_ = util::SimDuration::from_seconds(delay_s);
  queue_stats_.delay_ms.add(delay_s * 1e3);
  return PolicyAction::Pass;
}

}  // namespace ecnprobe::netsim
