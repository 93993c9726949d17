#include "ecnprobe/obs/timeseries.hpp"

#include <stdexcept>

#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {

namespace {

util::Error bad(const std::string& what) {
  return util::make_error("timeseries", what);
}

constexpr util::OptionKey<TimeSeriesConfig> kKeys[] = {
    {"window-ms", util::integer_in(1, static_cast<std::uint64_t>(util::kMaxOptionMs)),
     [](TimeSeriesConfig& c, util::OptionValue v) {
       c.window_nanos = static_cast<std::int64_t>(v.integer) * 1'000'000;
     }},
    {"alpha", util::number_in(0.0, 1.0, /*lo_open=*/true),
     util::store<&TimeSeriesConfig::alpha>},
    {"max-windows", util::integer_in(1, 1 << 20),
     util::store<&TimeSeriesConfig::max_windows>},
};

}  // namespace

std::string TimeSeriesConfig::summary() const {
  if (!enabled) return "off";
  return util::strf("window-ms=%lld alpha=%g max-windows=%d",
                    static_cast<long long>(window_nanos / 1'000'000), alpha,
                    max_windows);
}

util::Expected<TimeSeriesConfig> TimeSeriesConfig::parse(
    const std::string& spec) {
  TimeSeriesConfig config;
  const std::string_view trimmed = util::trim(spec);
  if (trimmed == "off") return config;
  config.enabled = true;
  // A bare WINDOW_MS is shorthand for window-ms=WINDOW_MS.
  const bool bare = trimmed.find_first_of(",=") == std::string_view::npos;
  const std::string options = bare ? "window-ms=" + std::string(trimmed) : spec;
  const auto list = util::split_options(options, /*heads=*/{});
  if (!list) return bad(list.error().message);
  auto out = util::read_options(config, list->options, kKeys);
  if (!out) return bad(out.error().message);
  return out;
}

bool TimeSeriesWindow::empty() const {
  return counts.empty() && rtt_buckets.empty() && rtt_count == 0 &&
         rtt_sum_nanos == 0;
}

void TimeSeriesWindow::merge(const TimeSeriesWindow& other) {
  for (const auto& [key, n] : other.counts) counts[key] += n;
  for (const auto& [bucket, n] : other.rtt_buckets) rtt_buckets[bucket] += n;
  rtt_count += other.rtt_count;
  rtt_sum_nanos += other.rtt_sum_nanos;
}

void TimeSeriesDelta::merge(const TimeSeriesDelta& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (window_nanos != other.window_nanos ||
      rtt_subbits != other.rtt_subbits) {
    throw std::invalid_argument(
        "TimeSeriesDelta::merge: mismatched window/subbits config");
  }
  for (const auto& [index, window] : other.windows) {
    windows[index].merge(window);
  }
}

void TimeSeriesRecorder::arm(const TimeSeriesConfig& config) {
  armed_ = config.enabled;
  config_ = config;
  // Same subbits derivation as the telemetry RTT histogram, so a window's
  // buckets line up with the campaign-wide quantile sketch.
  rtt_subbits_ = config.enabled ? LogHistogram(config.alpha).subbits() : 0;
  current_.clear();
  current_.window_nanos = config.enabled ? config.window_nanos : 0;
  current_.rtt_subbits = rtt_subbits_;
}

void TimeSeriesRecorder::disarm() {
  armed_ = false;
  current_ = TimeSeriesDelta{};
}

void TimeSeriesRecorder::begin_trace(int trace) {
  if (!armed_) return;
  trace_ = trace;
  origin_nanos_ = clock_ ? clock_() : 0;
  last_window_ = 0;
  current_.clear();
}

TimeSeriesWindow& TimeSeriesRecorder::window_now() {
  std::int64_t index = 0;
  if (clock_) {
    const std::int64_t elapsed = clock_() - origin_nanos_;
    if (elapsed > 0) index = elapsed / config_.window_nanos;
  }
  if (index >= config_.max_windows) index = config_.max_windows - 1;
  const auto window = static_cast<std::int32_t>(index);
  if (window > last_window_) {
    last_window_ = window;
    // Observation-only: the SSE stream hears about rollovers, nothing in
    // the determinism contract does.
    auto& stream = EventStream::process();
    if (stream.enabled()) {
      stream.emit("window", util::strf("trace=%d window=%d", trace_,
                                       static_cast<int>(window)));
    }
  }
  return current_.windows[window];
}

void TimeSeriesRecorder::on_probe(std::string_view test,
                                  std::string_view outcome) {
  if (!armed_) return;
  auto& window = window_now();
  ++window.counts["probe:" + std::string(test) + "/" + std::string(outcome)];
}

void TimeSeriesRecorder::on_drop(std::string_view layer,
                                 std::string_view cause) {
  if (!armed_) return;
  auto& window = window_now();
  ++window.counts["drop:" + std::string(layer) + "/" + std::string(cause)];
}

void TimeSeriesRecorder::on_rewrite(std::string_view layer,
                                    std::string_view cause) {
  if (!armed_) return;
  auto& window = window_now();
  ++window.counts["rewrite:" + std::string(layer) + "/" + std::string(cause)];
}

void TimeSeriesRecorder::observe_rtt(util::SimDuration rtt) {
  if (!armed_) return;
  auto& window = window_now();
  const std::int64_t nanos = rtt.count_nanos();
  ++window.rtt_buckets[LogHistogram::bucket_index(nanos, rtt_subbits_)];
  ++window.rtt_count;
  window.rtt_sum_nanos += nanos;
}

}  // namespace ecnprobe::obs
