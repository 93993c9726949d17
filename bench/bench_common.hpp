// Shared plumbing for the figure/table reproduction benches: command-line
// scaling, world construction, campaign execution with wall-clock reporting,
// and paper-vs-measured comparison lines.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::bench {

struct BenchConfig {
  double scale = 1.0;     ///< world + campaign scale (1.0 = paper scale)
  std::uint64_t seed = 42;
  std::string csv_path;   ///< optional raw-results dump
  std::string bench_json; ///< optional machine-readable metrics output
};

/// Parses --scale=F --seed=N --csv=PATH --bench-json=PATH; ECNPROBE_SCALE
/// env overrides the default scale (used to shrink CI runs).
inline BenchConfig parse_args(int argc, char** argv) {
  BenchConfig config;
  if (const char* env = std::getenv("ECNPROBE_SCALE")) config.scale = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) config.scale = std::atof(arg.c_str() + 8);
    else if (arg.rfind("--seed=", 0) == 0)
      config.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    else if (arg.rfind("--csv=", 0) == 0) config.csv_path = arg.substr(6);
    else if (arg.rfind("--bench-json=", 0) == 0) config.bench_json = arg.substr(13);
    else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--scale=F] [--seed=N] [--csv=PATH] [--bench-json=PATH]\n",
                  argv[0]);
      std::exit(0);
    }
  }
  if (config.scale <= 0.0 || config.scale > 1.0) config.scale = 1.0;
  return config;
}

/// Extracts `--bench-json=PATH` from argv and removes it, so the remaining
/// arguments can be handed to a strict parser (google-benchmark's
/// Initialize rejects flags it does not know). Returns "" when absent.
inline std::string take_bench_json_arg(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench-json=", 0) == 0) {
      path = arg.substr(13);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Accumulates named metrics and writes the BENCH_*.json format consumed by
/// scripts/check_bench_json.py. Schema (stable field order, one metric per
/// line, so diffs against the committed baselines stay readable):
///
///   {
///     "bench": "<name>",
///     "schema": 1,
///     "metrics": [
///       {"name": "...", "value": 1.5, "unit": "...", "guarded": true},
///       ...
///     ]
///   }
///
/// `guarded` marks metrics that are machine-independent (ratios, byte
/// counts, event counts): CI fails when a guarded metric regresses by more
/// than 20% against the committed baseline. Raw wall-clock throughput is
/// recorded but unguarded -- it varies with the host.
class BenchJson {
public:
  explicit BenchJson(std::string bench_name) : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double value, const std::string& unit,
           bool guarded = false) {
    metrics_.push_back({name, value, unit, guarded});
  }

  /// Attaches a self-profiler report (obs::Profiler::to_json()). Emitted as
  /// a top-level "unguarded_profile" member -- check_bench_json.py reads
  /// only "metrics", so the profile is visible in the artifact but can
  /// never participate in guarded-drift gating (wall-clock timings measure
  /// the host, not the code).
  void set_profile_json(std::string profile_json) {
    profile_json_ = std::move(profile_json);
  }

  /// Writes the report to `path`; "-" streams it to stdout.
  bool write(const std::string& path) const {
    const bool to_stdout = path == "-";
    std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": 1,\n", bench_.c_str());
    if (!profile_json_.empty()) {
      std::fprintf(f, "  \"unguarded_profile\": %s,\n", profile_json_.c_str());
    }
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", "
                      "\"guarded\": %s}%s\n",
                   m.name.c_str(), m.value, m.unit.c_str(),
                   m.guarded ? "true" : "false",
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (to_stdout) {
      std::fflush(f);
    } else {
      std::fclose(f);
      std::printf("bench metrics written to %s\n", path.c_str());
    }
    return true;
  }

private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool guarded;
  };
  std::string bench_;
  std::string profile_json_;
  std::vector<Metric> metrics_;
};

inline scenario::WorldParams world_params(const BenchConfig& config) {
  auto params = scenario::WorldParams::paper().scaled(config.scale);
  params.seed = config.seed;
  return params;
}

/// The paper's 210-trace layout, scaled along with the world.
inline measure::CampaignPlan campaign_plan(const BenchConfig& config) {
  auto scaled = [&](int n) {
    const int v = static_cast<int>(n * config.scale + 0.5);
    return v < 1 ? 1 : v;
  };
  return measure::CampaignPlan::paper_layout(scaled(9), scaled(12), scaled(14));
}

/// A one-worker campaign plus how much simulation it took. One world runs
/// every trace, so its simulator's clock and event count at the last delta
/// collection cover the whole plan, world construction included.
struct SimulatedRun {
  scenario::CampaignRun run;
  std::size_t sim_events = 0;
  double sim_seconds = 0.0;
};

/// WorldShard that notes its simulator's totals at every delta collection.
class SimTotalsShard final : public measure::CampaignShard {
public:
  SimTotalsShard(const scenario::WorldParams& params, SimulatedRun* out)
      : shard_(params), out_(out) {}

  netsim::Simulator& sim() override { return shard_.sim(); }
  std::map<std::string, measure::Vantage*> vantages() override { return shard_.vantages(); }
  std::vector<wire::Ipv4Address> servers() override { return shard_.servers(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    shard_.begin_trace(vantage, batch, index);
  }
  obs::ObsSnapshot collect_trace_metrics() override {
    out_->sim_events = shard_.sim().events_processed();
    out_->sim_seconds = shard_.sim().now().to_seconds();
    return shard_.collect_trace_metrics();
  }
  std::vector<obs::FlightEvent> collect_trace_events() override {
    return shard_.collect_trace_events();
  }
  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    shard_.quarantine_trace(vantage, batch, index);
  }
  sched::GroupResolver breaker_group() override { return shard_.breaker_group(); }

private:
  scenario::WorldShard shard_;
  SimulatedRun* out_;
};

inline SimulatedRun run_simulated(const scenario::WorldParams& params,
                                  const measure::CampaignPlan& plan,
                                  const measure::ProbeOptions& probe = {}) {
  SimulatedRun out;
  measure::ParallelCampaign campaign(
      [&](int) { return std::make_unique<SimTotalsShard>(params, &out); },
      scenario::campaign_options(params, probe));
  out.run.traces = campaign.run(plan);
  out.run.failures = campaign.failures();
  out.run.metrics = campaign.metrics();
  return out;
}

class Stopwatch {
public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_header(const char* title, const BenchConfig& config,
                         const scenario::WorldParams& params) {
  std::printf("=== %s ===\n", title);
  std::printf("scale=%.3g seed=%llu servers=%d stub-ASes=%d\n\n", config.scale,
              static_cast<unsigned long long>(config.seed), params.server_count,
              params.topology.stub_count);
}

inline void compare(const char* label, double measured, double paper,
                    const char* unit = "") {
  std::printf("  %-44s measured %10.2f%s   paper %10.2f%s\n", label, measured, unit,
              paper, unit);
}

}  // namespace ecnprobe::bench
