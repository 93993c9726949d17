#include "ecnprobe/chaos/policies.hpp"

#include <cmath>

#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/icmp.hpp"

namespace ecnprobe::chaos {

using netsim::PolicyAction;

PolicyAction CorruptionPolicy::do_apply(wire::Datagram& dgram, util::Rng& /*rng*/,
                                        util::SimTime /*now*/) {
  if (!dgram.payload.empty() && rng_.bernoulli(prob_)) {
    const std::size_t idx = rng_.next_below(dgram.payload.size());
    dgram.payload[idx] ^= 0x5A;
  }
  return PolicyAction::Pass;
}

PolicyAction DuplicatePolicy::do_apply(wire::Datagram& /*dgram*/, util::Rng& /*rng*/,
                                       util::SimTime /*now*/) {
  dup_ = rng_.bernoulli(prob_);
  return PolicyAction::Pass;
}

PolicyAction ReorderPolicy::do_apply(wire::Datagram& /*dgram*/, util::Rng& /*rng*/,
                                     util::SimTime /*now*/) {
  if (window_ms_ > 0.0 && rng_.bernoulli(prob_)) {
    pending_delay_ = util::SimDuration::nanos(
        static_cast<std::int64_t>(rng_.uniform(0.0, window_ms_) * 1e6));
  }
  return PolicyAction::Pass;
}

PolicyAction IcmpBlackholePolicy::do_apply(wire::Datagram& dgram, util::Rng& /*rng*/,
                                           util::SimTime /*now*/) {
  if (dgram.ip.protocol == wire::IpProto::Icmp && rng_.bernoulli(prob_)) {
    return PolicyAction::Drop;
  }
  return PolicyAction::Pass;
}

PolicyAction QuoteTruncatePolicy::do_apply(wire::Datagram& dgram, util::Rng& /*rng*/,
                                           util::SimTime /*now*/) {
  if (dgram.ip.protocol != wire::IpProto::Icmp) return PolicyAction::Pass;
  auto decoded = wire::decode_icmp_message(dgram.payload);
  if (!decoded) return PolicyAction::Pass;
  wire::IcmpMessage msg = std::move(decoded->message);
  // Only error messages carry a quotation, and truncating below the 8-byte
  // ICMP minimum would make the message undecodable rather than degraded.
  if (!msg.is_error() || msg.body.size() <= wire::IcmpMessage::kHeaderSize) {
    return PolicyAction::Pass;
  }
  if (!rng_.bernoulli(prob_)) return PolicyAction::Pass;
  // 8..19 quoted bytes: always less than a full inner IPv4 header, so the
  // prober can see who answered but is left without a validated quoted
  // header to read an ECN verdict from.
  const std::size_t keep =
      wire::IcmpMessage::kHeaderSize + static_cast<std::size_t>(rng_.next_below(12));
  if (msg.body.size() > keep) msg.body.resize(keep);
  dgram.payload = msg.encode();  // re-checksummed: degraded, not corrupt
  dgram.ip.total_length =
      static_cast<std::uint16_t>(wire::Ipv4Header::kSize + dgram.payload.size());
  return PolicyAction::Pass;
}

void RouteFlapPolicy::on_epoch(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  have_ref_ = false;
  ref_ = {};
  phase_ms_ = period_ms_ > 0.0 ? rng_.uniform(0.0, period_ms_) : 0.0;
}

PolicyAction RouteFlapPolicy::do_apply(wire::Datagram& /*dgram*/, util::Rng& /*rng*/,
                                       util::SimTime now) {
  if (down_ms_ <= 0.0 || period_ms_ <= 0.0) return PolicyAction::Pass;
  if (!have_ref_) {
    ref_ = now;
    have_ref_ = true;
  }
  const double elapsed_ms = (now - ref_).to_millis();
  const double pos = std::fmod(elapsed_ms, period_ms_);
  const double end = phase_ms_ + down_ms_;
  const bool down = (pos >= phase_ms_ && pos < end) ||
                    (end > period_ms_ && pos < end - period_ms_);  // window wraps
  return down ? PolicyAction::Drop : PolicyAction::Pass;
}

}  // namespace ecnprobe::chaos
