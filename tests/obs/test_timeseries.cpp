#include "ecnprobe/obs/timeseries.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/obs/loghist.hpp"

namespace ecnprobe::obs {
namespace {

TimeSeriesConfig enabled_config(std::int64_t window_ms = 1000) {
  TimeSeriesConfig config;
  config.enabled = true;
  config.window_nanos = window_ms * 1'000'000;
  return config;
}

TEST(TimeSeriesConfig, ParseGrammar) {
  const auto off = TimeSeriesConfig::parse("off");
  ASSERT_TRUE(off);
  EXPECT_FALSE(off->enabled);

  const auto bare = TimeSeriesConfig::parse("250");
  ASSERT_TRUE(bare);
  EXPECT_TRUE(bare->enabled);
  EXPECT_EQ(bare->window_nanos, 250'000'000);

  const auto full = TimeSeriesConfig::parse("window-ms=50,alpha=0.05,max-windows=64");
  ASSERT_TRUE(full);
  EXPECT_TRUE(full->enabled);
  EXPECT_EQ(full->window_nanos, 50'000'000);
  EXPECT_DOUBLE_EQ(full->alpha, 0.05);
  EXPECT_EQ(full->max_windows, 64);

  EXPECT_FALSE(TimeSeriesConfig::parse(""));
  EXPECT_FALSE(TimeSeriesConfig::parse("banana"));
  EXPECT_FALSE(TimeSeriesConfig::parse("0"));
  EXPECT_FALSE(TimeSeriesConfig::parse("-5"));
  EXPECT_FALSE(TimeSeriesConfig::parse("window-ms=0"));
  EXPECT_FALSE(TimeSeriesConfig::parse("alpha=2"));
  EXPECT_FALSE(TimeSeriesConfig::parse("max-windows=x"));
  EXPECT_FALSE(TimeSeriesConfig::parse("unknown=1"));
  // Values are read whole and finite, within their key's range.
  for (const char* spec :
       {"1000000001", "window-ms=1000000001", "window-ms=1e300", "window-ms=inf", "0x10",
        "+250", "window-ms=250.5", "alpha=0", "alpha=nan", "alpha=1.5", "max-windows=0",
        "max-windows=1048577", "window-ms=250,window-ms=500", "window-ms=250,", "=250"}) {
    EXPECT_FALSE(TimeSeriesConfig::parse(spec)) << spec;
  }
  EXPECT_EQ(TimeSeriesConfig::parse("window-ms=1000,alpha=nan").error().message,
            "alpha must be a number in (0, 1], got 'nan'");
  EXPECT_EQ(TimeSeriesConfig::parse("banana").error().message,
            "window-ms must be an integer in [1, 1000000000], got 'banana'");
}

TEST(TimeSeriesConfig, WidestWindowParsesAndRecords) {
  // The widest window, 1e9 ms, is 1e15 ns: a recorder armed with it still
  // places samples by integer division, and the finest alpha builds.
  const auto edges =
      TimeSeriesConfig::parse("window-ms=1000000000,alpha=1,max-windows=1048576");
  ASSERT_TRUE(edges) << edges.error().message;
  EXPECT_EQ(edges->window_nanos, 1'000'000'000'000'000);
  EXPECT_EQ(edges->max_windows, 1 << 20);
  EXPECT_NO_THROW(LogHistogram histogram(edges->alpha));
  TimeSeriesRecorder recorder;
  std::int64_t now = 0;
  recorder.set_clock([&now] { return now; });
  recorder.arm(*edges);
  recorder.begin_trace(0);
  now = 2'500'000'000'000'000;
  recorder.on_probe("udp-plain", "ok");
  EXPECT_EQ(recorder.collect_delta().windows.count(2), 1u);
  ASSERT_TRUE(TimeSeriesConfig::parse("1000000000"));
}

TEST(TimeSeriesRecorder, DisabledRecorderStaysInert) {
  TimeSeriesRecorder recorder;
  recorder.begin_trace(0);
  recorder.on_probe("udp-plain", "ok");
  recorder.on_drop("link", "link-loss");
  recorder.observe_rtt(util::SimDuration::nanos(1'000'000));
  EXPECT_FALSE(recorder.armed());
  EXPECT_TRUE(recorder.collect_delta().empty());
}

TEST(TimeSeriesRecorder, WindowsAreEpochRelative) {
  TimeSeriesRecorder recorder;
  std::int64_t now = 0;
  recorder.set_clock([&now] { return now; });
  recorder.arm(enabled_config(1000));  // 1 s windows

  // Trace epoch starts at an arbitrary absolute sim time: the recorder
  // must subtract it, so window 0 covers [origin, origin + 1s).
  now = 5'500'000'000;
  recorder.begin_trace(7);
  recorder.on_probe("udp-plain", "ok");       // window 0
  now += 300'000'000;
  recorder.on_drop("link", "link-loss");      // still window 0
  now += 800'000'000;                          // 1.1 s after origin
  recorder.on_probe("udp-plain", "timeout");  // window 1
  now += 2'000'000'000;                        // 3.1 s after origin
  recorder.observe_rtt(util::SimDuration::nanos(2'000'000));  // window 3

  const auto delta = recorder.collect_delta();
  ASSERT_EQ(delta.windows.size(), 3u);
  EXPECT_EQ(delta.windows.at(0).counts.at("probe:udp-plain/ok"), 1u);
  EXPECT_EQ(delta.windows.at(0).counts.at("drop:link/link-loss"), 1u);
  EXPECT_EQ(delta.windows.at(1).counts.at("probe:udp-plain/timeout"), 1u);
  EXPECT_EQ(delta.windows.at(3).rtt_count, 1u);
  EXPECT_EQ(delta.windows.at(3).rtt_sum_nanos, 2'000'000);
  const int bucket = LogHistogram::bucket_index(2'000'000, delta.rtt_subbits);
  EXPECT_EQ(delta.windows.at(3).rtt_buckets.at(bucket), 1u);

  // A new trace resets the origin: the same offsets land in the same
  // windows regardless of absolute time (the determinism property).
  now = 42'000'000'000;
  recorder.begin_trace(8);
  recorder.on_probe("udp-plain", "ok");
  const auto second = recorder.collect_delta();
  ASSERT_EQ(second.windows.size(), 1u);
  EXPECT_EQ(second.windows.at(0).counts.at("probe:udp-plain/ok"), 1u);
}

TEST(TimeSeriesRecorder, LateSamplesClampIntoLastWindow) {
  TimeSeriesRecorder recorder;
  std::int64_t now = 0;
  recorder.set_clock([&now] { return now; });
  auto config = enabled_config(10);
  config.max_windows = 4;
  recorder.arm(config);
  recorder.begin_trace(0);
  now = 1'000'000'000;  // way past 4 windows of 10 ms
  recorder.on_probe("udp-plain", "ok");
  const auto delta = recorder.collect_delta();
  ASSERT_EQ(delta.windows.size(), 1u);
  EXPECT_EQ(delta.windows.begin()->first, 3);
}

TEST(TimeSeriesDelta, MergeIsCommutativeAndChecksConfig) {
  TimeSeriesDelta a;
  a.window_nanos = 1'000'000'000;
  a.rtt_subbits = 5;
  a.windows[0].counts["probe:udp-plain/ok"] = 2;
  a.windows[2].rtt_count = 1;
  a.windows[2].rtt_sum_nanos = 10;

  TimeSeriesDelta b;
  b.window_nanos = 1'000'000'000;
  b.rtt_subbits = 5;
  b.windows[0].counts["probe:udp-plain/ok"] = 3;
  b.windows[0].counts["drop:link/link-loss"] = 1;

  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.windows.at(0).counts.at("probe:udp-plain/ok"), 5u);

  // Inert sides adopt the other's config; conflicting configs throw.
  TimeSeriesDelta inert;
  inert.merge(a);
  EXPECT_EQ(inert, a);
  TimeSeriesDelta other_config = b;
  other_config.window_nanos = 2'000'000'000;
  EXPECT_THROW(ab.merge(other_config), std::invalid_argument);
}

TEST(TimeSeriesCodec, RoundTripsByteExactly) {
  ObsSnapshot snapshot;
  snapshot.timeseries.window_nanos = 500'000'000;
  snapshot.timeseries.rtt_subbits = 5;
  auto& w0 = snapshot.timeseries.windows[0];
  w0.counts["probe:udp-plain/ok"] = 4;
  w0.counts["drop:router/ecn-blackhole"] = 1;
  w0.rtt_buckets[123] = 4;
  w0.rtt_count = 4;
  w0.rtt_sum_nanos = 8'000'000;
  snapshot.timeseries.windows[7].counts["rewrite:policy/bleached"] = 2;

  const auto text = encode_obs(snapshot);
  const auto decoded = decode_obs(text);
  ASSERT_TRUE(decoded) << decoded.error().message;
  EXPECT_EQ(decoded->timeseries, snapshot.timeseries);
  EXPECT_EQ(encode_obs(*decoded), text);
}

TEST(TimeSeriesCodec, EmptySeriesKeepsLegacyBytes) {
  // The whole byte-compat story: a snapshot without a series must encode
  // to the exact same bytes as before the series layer existed (no Z/W/X/Y
  // records), so old journals and goldens replay unchanged.
  const ObsSnapshot empty;
  const auto text = encode_obs(empty);
  EXPECT_EQ(text.find('Z'), std::string::npos);
  const auto decoded = decode_obs(text);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->timeseries.empty());
}

TEST(TimeSeriesCodec, MalformedRecordsRejected) {
  EXPECT_FALSE(decode_obs("Z 0 5"));          // window width < 1
  EXPECT_FALSE(decode_obs("Z 1000 65"));      // subbits out of range
  EXPECT_FALSE(decode_obs("W -1 key 3"));     // negative window index
  EXPECT_FALSE(decode_obs("W 0 key"));        // short count record
  EXPECT_FALSE(decode_obs("X 0 -2 1"));       // negative bucket
  EXPECT_FALSE(decode_obs("Y 0 1"));          // short totals record
}

TEST(TimeSeriesExport, JsonAndPrometheusOmittedWhenEmpty) {
  const ObsSnapshot empty;
  EXPECT_EQ(to_json(empty).find("timeseries"), std::string::npos);
  EXPECT_TRUE(to_prometheus(empty.timeseries).empty());
}

TEST(TimeSeriesExport, JsonAndPrometheusCarryWindows) {
  ObsSnapshot snapshot;
  snapshot.timeseries.window_nanos = 1'000'000'000;
  snapshot.timeseries.rtt_subbits = 5;
  auto& w0 = snapshot.timeseries.windows[0];
  w0.counts["probe:udp-plain/ok"] = 4;
  w0.rtt_buckets[100] = 4;
  w0.rtt_count = 4;
  w0.rtt_sum_nanos = 8'000'000;

  const auto json = to_json(snapshot);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"window_nanos\":1000000000"), std::string::npos);
  EXPECT_NE(json.find("probe:udp-plain/ok"), std::string::npos);

  const auto prom = to_prometheus(snapshot.timeseries);
  EXPECT_NE(prom.find("# TYPE ecnprobe_timeseries_events_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ecnprobe_timeseries_rtt_nanos_count"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::obs
