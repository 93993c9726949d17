// The drop-attribution ledger: every packet the simulator discards or
// ECN-rewrites leaves a record of {trace idx, node, layer, cause}. This is
// the "why did that probe fail" companion to the paper's outcome figures:
// Figure 2's unreachable cells, Figure 3's ECT-dependent losses, and
// Figure 4's bleaching boundaries all have a concrete cause here.
//
// The ledger is single-threaded by design: it belongs to one world (one
// simulator thread). Parallel campaign workers each own a private ledger
// inside their world clone; per-trace slices are merged in plan order, so
// the combined cause totals are byte-identical to a sequential run.
//
// Every record is also mirrored into the owning MetricsRegistry as
// `ecn_drops_total{layer,cause}` / `ecn_rewrites_total{layer,cause}`
// counters, so exports and the loss-autopsy table need no special casing.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

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

/// One discarded packet.
struct DropRecord {
  int trace = -1;  ///< campaign trace index, -1 outside any trace epoch
  Layer layer = Layer::Link;
  DropCause cause = DropCause::LinkLoss;
  std::string node;  ///< hop where it died (node name or server address)
};

/// One ECN-codepoint rewrite observed in flight.
struct RewriteRecord {
  int trace = -1;
  Layer layer = Layer::Policy;
  RewriteCause cause = RewriteCause::Bleached;
  std::string node;
};

/// Aggregated ledger slice: cause x layer totals plus per-node detail.
/// Plain data, mergeable, deterministic encoding (maps throughout).
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

  /// Stamps subsequent records with the given campaign trace index.
  void set_trace(int index) { trace_ = index; }
  int trace() const { return trace_; }

  /// Trace-epoch entry point: stamps the index and, when sketched
  /// telemetry is armed, releases the previous trace's record vectors so
  /// a worker's ledger stays O(one trace), not O(campaign). Call BEFORE
  /// the world snapshots its obs baseline.
  void begin_trace(int index);

  /// Sketched-mode wiring: when set and armed, records are forwarded to
  /// the telemetry recorder; only exactly-sampled traces keep ledger rows
  /// and registry mirror counters.
  void set_telemetry(TelemetryRecorder* telemetry) { telemetry_ = telemetry; }

  /// Sim-time-series wiring: when set and armed, every record is also
  /// bucketed into the current sim-time window (independent of the
  /// telemetry sampling decision -- series count everything).
  void set_timeseries(TimeSeriesRecorder* timeseries) {
    timeseries_ = timeseries;
  }

  void record_drop(Layer layer, DropCause cause, std::string node);
  void record_rewrite(Layer layer, RewriteCause cause, std::string node);

  const std::vector<DropRecord>& drops() const { return drops_; }
  const std::vector<RewriteRecord>& rewrites() const { return rewrites_; }

  /// Aggregates records [drop_from, rewrite_from) .. end -- the campaign
  /// executors use this to slice out one trace's worth of attribution.
  LedgerSnapshot aggregate(std::size_t drop_from = 0, std::size_t rewrite_from = 0) const;

  /// Drops every row past the first `drop_count` drops and
  /// `rewrite_count` rewrites, keeping the vectors' capacity for the rows
  /// that follow. Mirror counters, series and sketches keep what they
  /// counted when each row was recorded.
  void truncate(std::size_t drop_count, std::size_t rewrite_count);

  void clear();

private:
  MetricsRegistry* registry_;
  TelemetryRecorder* telemetry_ = nullptr;
  TimeSeriesRecorder* timeseries_ = nullptr;
  int trace_ = -1;
  std::vector<DropRecord> drops_;
  std::vector<RewriteRecord> rewrites_;
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
