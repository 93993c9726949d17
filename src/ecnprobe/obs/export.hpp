// Deterministic encoders for metrics and the drop ledger: JSON (for the
// --metrics-out files and CI equality checks) and Prometheus text
// exposition (for scrape-style consumption), plus the human-readable
// "loss autopsy" table printed next to the paper figures.
//
// Encoders iterate std::maps only, so two equal snapshots always encode
// to the same bytes -- that property is load-bearing: CI diffs the JSON of
// a one-worker campaign against a sharded one.
#pragma once

#include <string>

#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/obs/telemetry.hpp"

namespace ecnprobe::obs {

/// JSON object mapping family name -> {kind, help, samples}.
std::string to_json(const MetricsSnapshot& snapshot);

/// JSON object with drops/rewrites keyed "layer/cause" -> count.
std::string to_json(const LedgerSnapshot& ledger);

/// JSON object {"metrics": ..., "drop_ledger": ...}, plus a
/// "timeseries" member when the sim-time-series layer recorded anything
/// (omitted otherwise so pre-series documents stay byte-identical).
std::string to_json(const ObsSnapshot& snapshot);

/// JSON object {"window_nanos": ..., "rtt_subbits": ..., "windows": {...}}
/// for the deterministic sim-time series. "null" when empty.
std::string to_json(const TimeSeriesDelta& series);

/// Prometheus exposition of the sim-time series: per-window event
/// counters (`window` label carries the sim-time window index) and a
/// per-window RTT histogram. Empty string when the series is empty.
std::string to_prometheus(const TimeSeriesDelta& series);

/// Prometheus text exposition (HELP/TYPE + samples). Histogram samples
/// expand to _bucket{le=...}/_sum/_count as usual.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON object for the sketched-telemetry aggregate: config + error
/// bounds, budget self-metrics, keyed estimates, rtt quantiles,
/// exemplars. "null" when the aggregate is inactive (exact mode).
std::string to_json(const TelemetryAggregate& telemetry);

/// Prometheus exposition of the sketch-backed families. Every sample
/// carries an `estimate="true"` label, and the block opens with comment
/// lines stating the epsilon/delta/alpha error contract, so a scraper
/// can never mistake an estimate for a truth counter. Empty string when
/// inactive.
std::string to_prometheus(const TelemetryAggregate& telemetry);

/// The drop/rewrite cause totals reconstructed from the sketch, shaped
/// like a LedgerSnapshot so the autopsy/report tables can render them.
/// Each value is an estimate: true <= value <= true + error_bound().
LedgerSnapshot estimated_ledger(const TelemetryAggregate& telemetry);

/// The full --metrics-out JSON document:
///   {"campaign": <ObsSnapshot>, "runtime": <MetricsSnapshot>}
/// plus a "telemetry" member when a sketched aggregate is active. The
/// campaign and telemetry sections are deterministic under --workers N;
/// the runtime section (worker utilization, progress gauges) is
/// wall-clock dependent and excluded from equality checks. `runtime` and
/// `telemetry` may be null; exact-mode documents are byte-identical to
/// the pre-telemetry format.
std::string render_metrics_report_json(const ObsSnapshot& campaign,
                                       const MetricsSnapshot* runtime,
                                       const TelemetryAggregate* telemetry = nullptr);

/// Writes the JSON report to `path` and the Prometheus exposition of the
/// same data to a sibling file (path with its extension replaced by
/// ".prom"). `path == "-"` streams the JSON report to stdout and skips
/// the Prometheus sibling. Returns false if either file cannot be
/// written.
bool write_metrics_files(const std::string& path, const ObsSnapshot& campaign,
                         const MetricsSnapshot* runtime,
                         const TelemetryAggregate* telemetry = nullptr);

/// Drops-by-cause x layer table with row/column totals, plus a rewrite
/// summary line. Empty string when the ledger recorded nothing.
std::string render_loss_autopsy(const LedgerSnapshot& ledger);

/// Human-readable summary of a sketched campaign: the estimated loss
/// table (flagged as estimates with the overcount bound), rtt quantiles,
/// sampling and budget accounting. Empty string when inactive.
std::string render_sketched_summary(const TelemetryAggregate& telemetry);

}  // namespace ecnprobe::obs
