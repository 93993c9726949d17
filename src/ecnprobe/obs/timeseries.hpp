// Deterministic sim-time series: the time-resolved companion to the
// end-of-run metric totals. The paper's figures aggregate a whole
// campaign; "ECN verbose mode"-style questions (when did the drops
// happen? did RTT shift as congestion built?) need mark/drop/probe rates
// as series over *simulated* time.
//
// Two-level design, the same shape as the telemetry recorder:
//
//  * TimeSeriesRecorder lives in each world's Observability and buckets
//    probe outcomes, drop/rewrite causes, and RTT samples for the
//    CURRENT trace into fixed-width sim-time windows. Window indices are
//    epoch-relative (offset from the trace's sim-clock origin), so a
//    trace's series is a pure function of (WorldParams, batch, index) --
//    exactly the property that makes per-trace deltas shardable.
//
//  * TimeSeriesDelta is the per-trace result, journaled inside
//    ObsSnapshot and folded in plan order by the campaign executor.
//    Folding is window-wise commutative integer addition, so one-worker
//    and --workers N campaigns produce byte-identical series.
//
// RTT samples use the LogHistogram bucket mapping (pure-integer, no
// libm), one sparse histogram per window, so per-window quantiles come
// out with the same relative-error contract as the telemetry layer.
//
// Disabled (the default) every hook is a single bool test and the delta
// stays empty, which keeps every existing export and journal encoding
// byte-identical to a build without this layer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "ecnprobe/obs/loghist.hpp"
#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::obs {

// Parsed from --timeseries "off" | "<window-ms>" | "window-ms=N[,...]".
// Series shape is a pure function of this config plus the trace stream.
struct TimeSeriesConfig {
  bool enabled = false;
  std::int64_t window_nanos = 1'000'000'000;  // 1 s of sim time per window
  double alpha = 0.01;   // per-window RTT histogram relative error
  int max_windows = 512; // later samples clamp into the last window

  // Spec grammar: "off", a bare window width in sim-milliseconds, or a
  // comma list "window-ms=N,alpha=F,max-windows=N".
  static util::Expected<TimeSeriesConfig> parse(const std::string& spec);
  std::string summary() const;
};

/// One sim-time window's worth of observations. Keys are composite:
/// "probe:<test>/<outcome>", "drop:<layer>/<cause>",
/// "rewrite:<layer>/<cause>".
struct TimeSeriesWindow {
  std::map<std::string, std::uint64_t> counts;
  std::map<std::int32_t, std::uint64_t> rtt_buckets;
  std::uint64_t rtt_count = 0;
  std::int64_t rtt_sum_nanos = 0;

  bool empty() const;
  void merge(const TimeSeriesWindow& other);

  bool operator==(const TimeSeriesWindow&) const = default;
};

/// Per-trace (and, after folding, per-campaign) series. The config echo
/// (window width, RTT subbits) rides along so merges can check
/// compatibility and decoders need no out-of-band state.
struct TimeSeriesDelta {
  std::int64_t window_nanos = 0;  // 0 = inert (recorder disabled)
  int rtt_subbits = 0;
  std::map<std::int32_t, TimeSeriesWindow> windows;

  bool empty() const { return windows.empty(); }
  void clear() { windows.clear(); }
  /// Window-wise commutative addition. An inert side adopts the other's
  /// config; mismatched configs throw std::invalid_argument.
  void merge(const TimeSeriesDelta& other);

  bool operator==(const TimeSeriesDelta&) const = default;
};

/// The per-world observer. Window indices come from a sim-clock callback
/// relative to the origin captured at begin_trace(), so the series is
/// epoch-hermetic: it never sees the absolute sim clock, which differs
/// between sequential and sharded executions.
class TimeSeriesRecorder {
 public:
  using Clock = std::function<std::int64_t()>;  // sim now, nanoseconds

  void arm(const TimeSeriesConfig& config);
  void disarm();
  bool armed() const { return armed_; }
  const TimeSeriesConfig& config() const { return config_; }
  int rtt_subbits() const { return rtt_subbits_; }

  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Starts a trace epoch: captures the sim-clock origin, clears the
  /// delta.
  void begin_trace(int trace);

  void on_probe(std::string_view test, std::string_view outcome);
  void on_drop(std::string_view layer, std::string_view cause);
  void on_rewrite(std::string_view layer, std::string_view cause);
  void observe_rtt(util::SimDuration rtt);

  /// Non-destructive copy of the current trace's delta.
  TimeSeriesDelta collect_delta() const { return current_; }

 private:
  TimeSeriesWindow& window_now();

  bool armed_ = false;
  int trace_ = -1;
  int rtt_subbits_ = 0;
  std::int64_t origin_nanos_ = 0;
  std::int32_t last_window_ = 0;
  TimeSeriesConfig config_;
  TimeSeriesDelta current_;
  Clock clock_;
};

}  // namespace ecnprobe::obs
