// Flight-recorder overhead: the same fixed-seed campaign with the recorder
// disarmed (the hot path pays one predicted branch per packet) and armed
// (every instrumented packet's events, wire bytes included, land in the
// ring). Reports wall-clock for both, the overhead ratio, events recorded,
// and export throughput for the two formats.
#include <cstdio>

#include <sstream>

#include "bench_common.hpp"
#include "ecnprobe/obs/flight_export.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  auto config = bench::parse_args(argc, argv);
  if (config.scale > 0.4) config.scale = 0.4;
  auto params = bench::world_params(config);
  const auto plan = bench::campaign_plan(config);
  bench::print_header("Flight recorder: recording overhead and export throughput",
                      config, params);

  // Both timings include building the worker's world.
  bench::Stopwatch disarmed_watch;
  scenario::run_campaign(params, plan);
  const double disarmed_s = disarmed_watch.seconds();
  std::printf("  recorder disarmed: %6.2f s (%d traces)\n", disarmed_s,
              plan.total_traces());

  params.flight_recorder_capacity = 1 << 20;
  bench::Stopwatch watch;
  const auto events = scenario::run_campaign(params, plan).flights;
  const double armed_s = watch.seconds();
  std::printf("  recorder armed:    %6.2f s, %zu events (%.0f events/s)\n", armed_s,
              events.size(), events.size() / (armed_s > 0 ? armed_s : 1));
  std::printf("  recording overhead: %+.1f%%\n",
              disarmed_s > 0 ? (armed_s / disarmed_s - 1.0) * 100.0 : 0.0);

  {
    std::ostringstream os;
    bench::Stopwatch export_watch;
    const auto packets = obs::write_pcapng(os, events);
    // The size is the stream position: copying the capture out with str()
    // would double its footprint for a byte count.
    std::printf("  pcapng export:     %6.3f s, %zu packets, %.1f MB\n",
                export_watch.seconds(), packets, static_cast<double>(os.tellp()) / 1e6);
  }
  {
    bench::Stopwatch export_watch;
    const auto json = obs::to_chrome_trace_json(events);
    std::printf("  trace-json export: %6.3f s, %.1f MB\n", export_watch.seconds(),
                json.size() / 1e6);
  }
  return 0;
}
