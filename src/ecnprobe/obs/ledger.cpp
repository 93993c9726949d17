#include "ecnprobe/obs/ledger.hpp"

namespace ecnprobe::obs {

std::string_view to_string(Layer layer) {
  switch (layer) {
    case Layer::Link: return "link";
    case Layer::Policy: return "policy";
    case Layer::Router: return "router";
    case Layer::Host: return "host";
    case Layer::App: return "app";
    case Layer::Measure: return "measure";
  }
  return "?";
}

std::string_view to_string(DropCause cause) {
  switch (cause) {
    case DropCause::LinkLoss: return "link-loss";
    case DropCause::LinkDown: return "link-down";
    case DropCause::Greylist: return "greylist";
    case DropCause::AqmEarly: return "aqm-early-drop";
    case DropCause::AqmOverflow: return "aqm-overflow";
    case DropCause::CongestionLoss: return "congestion-loss";
    case DropCause::EctUdpFilter: return "ect-udp-filter";
    case DropCause::EctAnyFilter: return "ect-any-filter";
    case DropCause::TosFilter: return "tos-filter";
    case DropCause::MatchFilter: return "match-filter";
    case DropCause::PolicyOther: return "policy-other";
    case DropCause::TtlExpired: return "ttl-expired";
    case DropCause::Unroutable: return "unroutable";
    case DropCause::NoSocket: return "no-socket";
    case DropCause::BadChecksum: return "bad-checksum";
    case DropCause::ServerOffline: return "server-offline";
    case DropCause::RateLimited: return "rate-limited";
    case DropCause::ProbeTimeout: return "probe-timeout";
    case DropCause::CircuitOpen: return "circuit-open";
    case DropCause::WatchdogCancelled: return "watchdog-cancelled";
    case DropCause::IcmpBlackhole: return "icmp-blackhole";
    case DropCause::RouteFlap: return "route-flap";
    case DropCause::TraceQuarantined: return "trace-quarantined";
  }
  return "?";
}

std::string_view to_string(RewriteCause cause) {
  switch (cause) {
    case RewriteCause::Bleached: return "bleached";
    case RewriteCause::CeMarked: return "ce-marked";
  }
  return "?";
}

// -- LedgerSnapshot ----------------------------------------------------------

std::uint64_t LedgerSnapshot::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& [key, n] : drops) total += n;
  return total;
}

std::uint64_t LedgerSnapshot::total_rewrites() const {
  std::uint64_t total = 0;
  for (const auto& [key, n] : rewrites) total += n;
  return total;
}

std::uint64_t LedgerSnapshot::drops_for_cause(std::string_view cause) const {
  std::uint64_t total = 0;
  for (const auto& [key, n] : drops) {
    if (key.second == cause) total += n;
  }
  return total;
}

void LedgerSnapshot::merge(const LedgerSnapshot& other) {
  for (const auto& [key, n] : other.drops) drops[key] += n;
  for (const auto& [key, n] : other.rewrites) rewrites[key] += n;
}

// -- DropLedger --------------------------------------------------------------

void DropLedger::record_drop(Layer layer, DropCause cause, std::string_view node) {
  if (timeseries_ != nullptr && timeseries_->armed()) {
    // Series count every drop regardless of the telemetry sampling
    // decision; the window index is sim-time, so this stays deterministic.
    timeseries_->on_drop(to_string(layer), to_string(cause));
  }
  const auto li = static_cast<std::size_t>(layer);
  const auto ci = static_cast<std::size_t>(cause);
  if (telemetry_ != nullptr && telemetry_->armed()) {
    telemetry_->on_drop(to_string(layer), to_string(cause), node);
    // Unsampled traces live only in the sketches (plus a reservoir
    // exemplar kept by the recorder); sampled traces keep the exact count
    // for autopsies but skip the registry mirror -- in sketched mode the
    // estimates replace `ecn_drops_total`, and mirroring a biased subset
    // would misread as a truth counter.
    if (telemetry_->trace_sampled_exact()) ++drops_[li][ci];
    return;
  }
  Counter*& mirror = drop_counters_[li][ci];
  if (mirror == nullptr) {
    mirror = registry_->counter(
        "ecn_drops_total",
        {{"layer", std::string(to_string(layer))}, {"cause", std::string(to_string(cause))}},
        "packets discarded, by layer and attributed cause");
  }
  mirror->inc();
  ++drops_[li][ci];
}

void DropLedger::record_drop(Layer layer, DropCause cause, wire::Ipv4Address server) {
  const bool node_read = telemetry_ != nullptr && telemetry_->armed();
  record_drop(layer, cause, node_read ? server.to_string() : std::string());
}

void DropLedger::record_rewrite(Layer layer, RewriteCause cause) {
  if (timeseries_ != nullptr && timeseries_->armed()) {
    timeseries_->on_rewrite(to_string(layer), to_string(cause));
  }
  const auto li = static_cast<std::size_t>(layer);
  const auto ci = static_cast<std::size_t>(cause);
  if (telemetry_ != nullptr && telemetry_->armed()) {
    telemetry_->on_rewrite(to_string(layer), to_string(cause));
    if (telemetry_->trace_sampled_exact()) ++rewrites_[li][ci];
    return;
  }
  Counter*& mirror = rewrite_counters_[li][ci];
  if (mirror == nullptr) {
    mirror = registry_->counter(
        "ecn_rewrites_total",
        {{"layer", std::string(to_string(layer))}, {"cause", std::string(to_string(cause))}},
        "in-flight ECN codepoint rewrites, by layer and cause");
  }
  mirror->inc();
  ++rewrites_[li][ci];
}

LedgerSnapshot DropLedger::aggregate() const {
  LedgerSnapshot out;
  for (std::size_t li = 0; li < kLayerCount; ++li) {
    const std::string layer(to_string(static_cast<Layer>(li)));
    for (std::size_t ci = 0; ci < kDropCauseCount; ++ci) {
      if (const auto n = drops_[li][ci]; n != 0) {
        out.drops[{layer, std::string(to_string(static_cast<DropCause>(ci)))}] = n;
      }
    }
    for (std::size_t ci = 0; ci < kRewriteCauseCount; ++ci) {
      if (const auto n = rewrites_[li][ci]; n != 0) {
        out.rewrites[{layer, std::string(to_string(static_cast<RewriteCause>(ci)))}] = n;
      }
    }
  }
  return out;
}

void DropLedger::reset() {
  drops_ = {};
  rewrites_ = {};
}

Observability& Observability::process() {
  static Observability instance;
  return instance;
}

}  // namespace ecnprobe::obs
