// One-worker-vs-N campaign comparison: runs the paper's trace layout once
// on one worker as the baseline and then at increasing worker counts,
// checking that every run's merged results CSV *and* merged campaign
// metrics are byte-identical to the baseline while reporting the
// wall-clock speedup and per-worker utilization (busy time as a fraction of
// workers x wall time, from the worker_busy_micros_total runtime counters).
// This is the executable form of the determinism contract in
// tests/measure/test_parallel_campaign.cpp at study scale.
//
//   bench_parallel_campaign [--scale=F] [--seed=N] [--workers=N] [--csv=PATH]
//
// --workers gives the highest worker count tried; the bench sweeps
// {1, 2, 4, ..., workers}. Note each worker builds its own private world,
// so peak memory scales with the worker count.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/export.hpp"

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  int max_workers = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) max_workers = std::atoi(arg.c_str() + 10);
  }
  if (max_workers < 1) max_workers = 1;
  const auto params = bench::world_params(config);
  bench::print_header("Parallel campaign sharding: speedup and determinism", config,
                      params);

  const auto plan = bench::campaign_plan(config);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("plan: %d traces, %d servers, up to %d workers (%u hardware threads)\n",
              plan.total_traces(), params.server_count, max_workers, cores);
  if (cores != 0 && static_cast<int>(cores) < max_workers) {
    std::printf("note: fewer cores than workers -- expect determinism, not speedup\n");
  }
  std::printf("\n");

  std::printf("one-worker baseline...\n");
  bench::Stopwatch serial_timer;
  const auto baseline = bench::run_simulated(params, plan);
  const double serial_seconds = serial_timer.seconds();
  std::ostringstream serial_csv;
  measure::write_traces_csv(serial_csv, baseline.run.traces);
  const auto serial_metrics = obs::to_json(baseline.run.metrics);
  const auto summary = analysis::summarize_reachability(baseline.run.traces);
  std::printf("  %.2fs (%zu simulated events)\n", serial_seconds, baseline.sim_events);
  std::printf("  mean %% ECT(0)-reachable given not-ECT: %.2f%%\n\n",
              summary.mean_pct_ect_given_plain);

  std::printf("%8s %10s %9s %8s %12s %12s\n", "workers", "seconds", "speedup",
              "util", "csv", "metrics");
  bool all_identical = true;
  double best_speedup = 1.0;
  double best_parallel_seconds = serial_seconds;
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    measure::ParallelCampaign::Options exec;
    exec.workers = workers;
    measure::ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
    bench::Stopwatch timer;
    const auto traces = campaign.run(plan);
    const double seconds = timer.seconds();
    std::ostringstream csv;
    measure::write_traces_csv(csv, traces);

    // Utilization: total time workers spent inside traces, as a fraction of
    // the capacity (workers x wall clock). The gap is shard construction,
    // queue starvation at the tail, and merge time.
    std::uint64_t busy_micros = 0;
    const auto runtime = campaign.runtime_metrics();
    if (const auto it = runtime.families.find("worker_busy_micros_total");
        it != runtime.families.end()) {
      for (const auto& [labels, sample] : it->second.samples) busy_micros += sample.counter;
    }
    const double utilization =
        seconds > 0.0 ? static_cast<double>(busy_micros) / 1e6 / (workers * seconds) : 0.0;

    const bool csv_identical =
        campaign.failures().empty() && csv.str() == serial_csv.str();
    const bool metrics_identical = obs::to_json(campaign.metrics()) == serial_metrics;
    all_identical = all_identical && csv_identical && metrics_identical;
    if (serial_seconds / seconds > best_speedup) {
      best_speedup = serial_seconds / seconds;
      best_parallel_seconds = seconds;
    }
    std::printf("%8d %9.2fs %8.2fx %7.0f%% %12s %12s\n", workers, seconds,
                serial_seconds / seconds, 100.0 * utilization,
                csv_identical ? "identical" : "DIVERGED",
                metrics_identical ? "identical" : "DIVERGED");
  }

  if (!config.csv_path.empty()) {
    std::ofstream out(config.csv_path);
    out << serial_csv.str();
    std::printf("\nraw traces written to %s\n", config.csv_path.c_str());
  }
  if (!all_identical) {
    std::printf("\nFAIL: output diverged from the one-worker baseline\n");
    return 1;
  }
  std::printf("\nall worker counts byte-identical to the one-worker baseline\n");

  if (!config.bench_json.empty()) {
    const double probes =
        static_cast<double>(plan.total_traces()) * params.server_count;
    bench::BenchJson json("parallel_campaign");
    json.add("sequential_probes_per_sec",
             serial_seconds > 0.0 ? probes / serial_seconds : 0.0, "probes/s");
    json.add("sequential_sim_events_per_sec",
             serial_seconds > 0.0
                 ? static_cast<double>(baseline.sim_events) / serial_seconds
                 : 0.0,
             "events/s");
    json.add("best_parallel_probes_per_sec",
             best_parallel_seconds > 0.0 ? probes / best_parallel_seconds : 0.0,
             "probes/s");
    json.add("best_parallel_speedup", best_speedup, "x");
    json.add("all_worker_counts_identical", all_identical ? 1.0 : 0.0, "bool",
             /*guarded=*/true);
    if (!json.write(config.bench_json)) return 1;
  }
  return 0;
}
