// Fault-injection overhead and robustness sweep: runs the scaled paper
// campaign once clean and once under each chaos profile, reporting the
// wall-clock cost of the fault machinery, how the headline reachability
// numbers shift under degraded networks, and how many traces each profile
// quarantines. Each faulted run is executed twice with the same (profile,
// seed) to check the reproducibility contract at bench scale, and once
// through the sharded executor to check fault determinism survives
// parallelism.
//
//   bench_fault_injection [--scale=F] [--seed=N] [--workers=N]
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/chaos/fault_plan.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/codec.hpp"

namespace {

std::string traces_csv(const std::vector<ecnprobe::measure::Trace>& traces) {
  std::ostringstream os;
  ecnprobe::measure::write_traces_csv(os, traces);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  int workers = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) workers = std::atoi(arg.c_str() + 10);
  }
  if (workers < 1) workers = 1;
  const auto base_params = bench::world_params(config);
  bench::print_header("Fault injection: overhead, degradation, determinism", config,
                      base_params);
  const auto plan = bench::campaign_plan(config);
  std::printf("plan: %d traces, %d servers, parallel check at %d workers\n\n",
              plan.total_traces(), base_params.server_count, workers);

  struct Row {
    const char* profile;
    double seconds;
    double reach;
    std::size_t quarantined;
    bool reproducible;
    bool parallel_identical;
  };
  std::vector<Row> rows;
  double clean_seconds = 0.0;

  const std::vector<std::string> profiles = {"none", "wan-chaos", "icmp-degraded",
                                             "flaky-servers", "route-flap"};
  for (const auto& profile : profiles) {
    auto params = base_params;
    const auto faults = chaos::FaultPlan::parse(profile);
    if (!faults) {
      std::fprintf(stderr, "bad profile %s: %s\n", profile.c_str(),
                   faults.error().message.c_str());
      return 1;
    }
    params.faults = *faults;

    bench::Stopwatch timer;
    const auto run = scenario::run_campaign(params, plan);
    const double seconds = timer.seconds();
    if (profile == "none") clean_seconds = seconds;
    const auto csv = traces_csv(run.traces);
    const auto obs_bytes = obs::encode_obs(run.metrics);
    const auto summary = analysis::summarize_reachability(run.traces);

    // Reproducibility: the same (profile, seed) must rebuild the same bytes.
    const auto rerun = scenario::run_campaign(params, plan);
    const bool reproducible = traces_csv(rerun.traces) == csv &&
                              obs::encode_obs(rerun.metrics) == obs_bytes &&
                              rerun.failures.size() == run.failures.size();

    // Parallelism: sharding must not change the faulted output either.
    const auto par = scenario::run_campaign(params, plan, {}, workers);
    const bool parallel_identical = traces_csv(par.traces) == csv &&
                                    obs::encode_obs(par.metrics) == obs_bytes &&
                                    par.failures.size() == run.failures.size();

    rows.push_back({profile.c_str(), seconds, summary.mean_pct_ect_given_plain,
                    run.failures.size(), reproducible, parallel_identical});
  }

  std::printf("%-14s %9s %9s %14s %12s %13s %10s\n", "profile", "seconds", "overhead",
              "%reach|plain", "quarantined", "reproducible", "parallel");
  bool ok = true;
  for (const auto& row : rows) {
    ok = ok && row.reproducible && row.parallel_identical;
    std::printf("%-14s %8.2fs %8.2fx %13.2f%% %12zu %13s %10s\n", row.profile,
                row.seconds, clean_seconds > 0.0 ? row.seconds / clean_seconds : 0.0,
                row.reach, row.quarantined, row.reproducible ? "yes" : "NO",
                row.parallel_identical ? "identical" : "DIVERGED");
  }
  if (!ok) {
    std::printf("\nFAIL: a faulted campaign was not deterministic\n");
    return 1;
  }
  std::printf("\nall profiles reproducible and shard-invariant\n");
  return 0;
}
