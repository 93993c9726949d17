// The drop-attribution ledger: every packet the simulator discards or
// ECN-rewrites is counted under its {layer, cause}. This is the "why did
// that probe fail" companion to the paper's outcome figures: Figure 2's
// unreachable cells, Figure 3's ECT-dependent losses, and Figure 4's
// bleaching boundaries all have a concrete cause here. The ledger keeps
// counts, not rows: "which hop" is answered per packet by the flight
// recorder (trace-autopsy) and, in sketched mode, by the `hop:<node>/<cause>`
// telemetry keys.
//
// The ledger is single-threaded by design: it belongs to one world (one
// simulator thread). Parallel campaign workers each own a private ledger
// inside their world clone; per-trace slices are merged in plan order, so
// the combined cause totals are byte-identical to a sequential run.
//
// Every count is also mirrored into the owning MetricsRegistry as
// `ecn_drops_total{layer,cause}` / `ecn_rewrites_total{layer,cause}`
// counters, so exports and the loss-autopsy table need no special casing.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "ecnprobe/obs/flight.hpp"
#include "ecnprobe/obs/layer.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/obs/telemetry.hpp"
#include "ecnprobe/obs/timeseries.hpp"

namespace ecnprobe::obs {

/// Why the packet died (or was rewritten).
enum class DropCause : std::uint8_t {
  // Link
  LinkLoss,
  LinkDown,
  // Policy verdicts
  Greylist,
  AqmEarly,      ///< RED early drop (queue under pressure, ECN off)
  AqmOverflow,   ///< queue full
  CongestionLoss,
  EctUdpFilter,  ///< firewall dropping ECT-marked UDP
  EctAnyFilter,  ///< filter dropping any ECT traffic
  TosFilter,     ///< ToS-sensitive access link
  MatchFilter,   ///< address/port match rule (Figure 3b oddities)
  PolicyOther,
  // Router
  TtlExpired,
  Unroutable,
  // Host
  NoSocket,
  BadChecksum,
  // App
  ServerOffline,
  RateLimited,
  // Measure
  ProbeTimeout,
  CircuitOpen,        ///< probe skipped: the destination's breaker was open
  WatchdogCancelled,  ///< server probe cancelled at the watchdog deadline
  // Chaos (injected faults)
  IcmpBlackhole,     ///< fault plan eating ICMP error traffic at a router
  RouteFlap,         ///< mid-path link in its flap-down window
  TraceQuarantined,  ///< whole trace thrown away by the campaign executor
};
inline constexpr std::size_t kDropCauseCount = 23;

enum class RewriteCause : std::uint8_t {
  Bleached,  ///< ECT/CE codepoint stripped to not-ECT
  CeMarked,  ///< AQM congestion-experienced mark
};
inline constexpr std::size_t kRewriteCauseCount = 2;

std::string_view to_string(DropCause cause);
std::string_view to_string(RewriteCause cause);

/// Aggregated ledger slice: layer x cause totals. Plain data, mergeable,
/// deterministic encoding (maps throughout).
struct LedgerSnapshot {
  std::map<std::pair<std::string, std::string>, std::uint64_t> drops;     ///< {layer,cause} -> n
  std::map<std::pair<std::string, std::string>, std::uint64_t> rewrites;  ///< {layer,cause} -> n

  std::uint64_t total_drops() const;
  std::uint64_t total_rewrites() const;
  std::uint64_t drops_for_cause(std::string_view cause) const;
  void merge(const LedgerSnapshot& other);
};

class DropLedger {
public:
  explicit DropLedger(MetricsRegistry* registry) : registry_(registry) {}

  /// Sketched-mode wiring: when set and armed, records are forwarded to
  /// the telemetry recorder; only exactly-sampled traces are counted here,
  /// and none reach the registry mirror counters.
  void set_telemetry(TelemetryRecorder* telemetry) { telemetry_ = telemetry; }

  /// Sim-time-series wiring: when set and armed, every record is also
  /// bucketed into the current sim-time window (independent of the
  /// telemetry sampling decision -- series count everything).
  void set_timeseries(TimeSeriesRecorder* timeseries) {
    timeseries_ = timeseries;
  }

  /// `node` (the hop where the packet died: node name or server address)
  /// reaches only sketched telemetry's `hop:`/`as:` keys and exemplars.
  void record_drop(Layer layer, DropCause cause, std::string_view node);
  void record_rewrite(Layer layer, RewriteCause cause);

  /// The non-zero cells counted since the last reset(): one trace's worth
  /// when World::mark_obs_baseline() resets at each trace epoch.
  LedgerSnapshot aggregate() const;

  /// Zeroes both count tables. Mirror counters, series and sketches keep
  /// what they counted.
  void reset();

private:
  MetricsRegistry* registry_;
  TelemetryRecorder* telemetry_ = nullptr;
  TimeSeriesRecorder* timeseries_ = nullptr;
  std::array<std::array<std::uint64_t, kDropCauseCount>, kLayerCount> drops_{};
  std::array<std::array<std::uint64_t, kRewriteCauseCount>, kLayerCount> rewrites_{};
  // Mirror counters, resolved lazily per (layer, cause).
  std::array<std::array<Counter*, kDropCauseCount>, kLayerCount> drop_counters_{};
  std::array<std::array<Counter*, kRewriteCauseCount>, kLayerCount> rewrite_counters_{};
};

/// The bundle the simulator layers see: one registry, one ledger, one
/// flight recorder. Network/World wire a world-private instance through
/// the datapath; code running outside a world (unit tests poking a bare
/// Network) falls back to the process-wide instance. The recorder ships
/// disarmed: until World arms it, every datapath touch is one bool test.
struct Observability {
  Observability() : ledger(&registry) {
    ledger.set_telemetry(&telemetry);
    ledger.set_timeseries(&timeseries);
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  static Observability& process();

  MetricsRegistry registry;
  DropLedger ledger;
  FlightRecorder recorder;
  TelemetryRecorder telemetry;    ///< disarmed in exact mode: one bool test
  TimeSeriesRecorder timeseries;  ///< disarmed by default: one bool test
};

/// Everything one campaign produced: the metrics delta plus the ledger
/// slice plus the (empty in exact mode) telemetry delta, all
/// deterministic under sharding.
struct ObsSnapshot {
  MetricsSnapshot metrics;
  LedgerSnapshot ledger;
  TelemetryDelta telemetry;
  TimeSeriesDelta timeseries;

  void merge(const ObsSnapshot& other) {
    metrics.merge(other.metrics);
    ledger.merge(other.ledger);
    telemetry.merge(other.telemetry);
    timeseries.merge(other.timeseries);
  }
};

}  // namespace ecnprobe::obs
