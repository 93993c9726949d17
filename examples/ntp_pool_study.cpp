// End-to-end reproduction of the paper at a configurable scale: discover
// the pool via DNS, run the measurement campaign from all 13 vantage
// points, run the ECN traceroutes, and print every figure and table.
//
//   $ ./ntp_pool_study                  # 10% scale (250 servers), quick
//   $ ./ntp_pool_study 1.0              # full paper scale (2500 servers, 210 traces)
//   $ ./ntp_pool_study 1.0 --workers=8  # campaign sharded across 8 threads
//   $ ./ntp_pool_study 0.05 --traces 13 --seed 7    # 13 traces, another world
//   $ ./ntp_pool_study --metrics-out metrics.json   # export metrics + ledger
//   $ ./ntp_pool_study --faults wan-chaos --checkpoint run.journal
//   $ ./ntp_pool_study --resume run.journal         # continue a killed run
//   $ ./ntp_pool_study --record flight              # flight.pcapng + flight.trace.json
//   $ ./ntp_pool_study --faults blackhole-heavy --sched backoff,breaker-failures=3
//   $ ./ntp_pool_study 1.0 --telemetry sketched      # O(servers) telemetry memory
//   $ ./ntp_pool_study --timeseries 500              # 500 ms sim-time series windows
//   $ ./ntp_pool_study --serve-obs 9100 --workers=4  # live /metrics /progress /events
//
// The positional SCALE and the campaign keys (--scale --seed --traces
// --workers --faults --telemetry --timeseries --sched) go through
// scenario::CampaignSpec::from_args: the keys, rules and messages of
// `ecnprobe campaign` and of an ecnprobed spec. A bad value or an unknown
// flag exits 2 with the usage text. The other flags are this program's:
// --metrics-out, --checkpoint (journal every completed trace, so a killed
// run resumes byte-identically with --resume), --halt-after N (simulate
// the kill), --record and --serve-obs. --workers=N shards the campaign
// across N threads, one isolated world clone each; the merged results and
// the campaign metrics/drop ledger in --metrics-out are byte-identical to
// a one-worker run, just faster on a multicore box.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ecnprobe/analysis/figures.hpp"
#include "ecnprobe/analysis/geosummary.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/analysis/trend.hpp"
#include "ecnprobe/http/obs_server.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/obs/flight_export.hpp"
#include "ecnprobe/scenario/spec.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/strings.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ntp_pool_study [SCALE] [--scale F] [--seed N] [--traces N] [--workers N]\n"
               "         [--faults SPEC] [--telemetry SPEC] [--timeseries SPEC] [--sched SPEC]\n"
               "         [--metrics-out FILE] [--checkpoint FILE | --resume FILE]\n"
               "         [--halt-after N] [--record PREFIX] [--serve-obs PORT]\n"
               "  the campaign keys take what `ecnprobe campaign` takes (see its usage);\n"
               "  every flag also takes the --flag=VALUE spelling\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  std::vector<std::string> spec_args;
  int halt_after = 0;
  bool resume = false;
  std::string metrics_out;
  std::string checkpoint;
  std::string record;
  int serve_obs = -1;  // --serve-obs PORT: -1 = off, 0 = ephemeral
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      spec_args.push_back("--scale=" + arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "ntp_pool_study: %s requires a value\n", flag.c_str());
      return usage();
    }
    if (flag == "--metrics-out") {
      metrics_out = value;
    } else if (flag == "--checkpoint" || flag == "--resume") {
      checkpoint = value;
      resume = flag == "--resume";
    } else if (flag == "--record") {
      record = value;
    } else if (flag == "--halt-after" || flag == "--serve-obs") {
      const bool serve = flag == "--serve-obs";
      const auto n = util::parse_integer<int>(value);
      if (!n || *n < 0 || (serve && *n > 65535)) {
        std::fprintf(stderr, "ntp_pool_study: bad value for %s: '%s'\n", flag.c_str(),
                     value.c_str());
        return usage();
      }
      (serve ? serve_obs : halt_after) = *n;
    } else {
      spec_args.push_back(flag + "=" + value);  // a campaign key, or refused below
    }
  }
  const auto spec = scenario::CampaignSpec::from_args(spec_args);
  if (!spec) {
    std::fprintf(stderr, "ntp_pool_study: %s\n", spec.error().message.c_str());
    return usage();
  }
  auto resolved = spec->resolve();
  auto& params = resolved.params;
  const auto& plan = resolved.plan;
  const int workers = spec->workers;
  if (!record.empty()) params.flight_recorder_capacity = 1 << 16;
  std::printf("== ECN-with-UDP measurement study (scale %.2f: %d servers) ==\n\n",
              spec->scale, params.server_count);
  scenario::World world(params);

  // -- Section 3: discovery ------------------------------------------------
  std::printf("[1/4] discovering the pool via round-robin DNS...\n");
  const auto discovered =
      world.run_discovery("UGla wired", 40 + params.server_count / 12);
  std::printf("      %zu servers discovered\n\n", discovered.size());

  std::printf("Table 1 / Figure 1: geographic distribution\n");
  const auto geo_summary = analysis::summarize_geo(discovered, world.geodb());
  std::printf("%s\n%s\n", analysis::render_table1(geo_summary).c_str(),
              analysis::render_figure1(geo_summary, 72, 20).c_str());

  // -- Section 4.1 / 4.3: the campaign --------------------------------------
  std::printf("[2/4] running the measurement campaign (%d traces, %d worker%s, faults: %s)...\n",
              plan.total_traces(), workers, workers == 1 ? "" : "s",
              params.faults.name.c_str());

  measure::CampaignJournal journal;
  measure::CampaignJournal* journal_ptr = nullptr;
  if (!checkpoint.empty()) {
    if (resume && !std::ifstream(checkpoint).is_open()) {
      std::fprintf(stderr, "ntp_pool_study: cannot resume: no journal at %s\n",
                   checkpoint.c_str());
      return 1;
    }
    std::string error;
    const auto meta = scenario::journal_meta(params, plan, resolved.probe);
    if (!journal.open(checkpoint, meta, &error)) {
      std::fprintf(stderr, "ntp_pool_study: %s\n", error.c_str());
      return 1;
    }
    journal_ptr = &journal;
    if (!journal.entries().empty()) {
      std::printf("      resuming: %zu of %d traces already journaled\n",
                  journal.entries().size(), plan.total_traces());
    }
  }

  measure::ParallelCampaign campaign(
      scenario::world_shard_factory(params),
      scenario::campaign_options(params, resolved.probe, workers, halt_after));
  if (journal_ptr != nullptr) campaign.set_journal(journal_ptr);
  std::unique_ptr<http::ObsHttpServer> obs_server;
  if (serve_obs >= 0) {
    http::ObsHttpServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(serve_obs);
    http::ObsHttpServer::Providers providers;
    providers.metrics = [&campaign] {
      const auto snap = campaign.metrics_snapshot();
      return obs::to_prometheus(snap.metrics) + obs::to_prometheus(snap.timeseries);
    };
    providers.progress = [&campaign] { return campaign.progress().to_json(); };
    obs_server =
        std::make_unique<http::ObsHttpServer>(server_options, std::move(providers));
    std::string error;
    if (!obs_server->start(&error)) {
      std::fprintf(stderr, "ntp_pool_study: --serve-obs: %s\n", error.c_str());
      return 1;
    }
    std::printf("      live obs plane: http://127.0.0.1:%u  (/metrics /progress /events)\n",
                static_cast<unsigned>(obs_server->port()));
  }
  // Each trace is folded as the executor commits it, so the campaign's
  // traces are never held together: the study peaks in its traceroutes.
  analysis::FigureFold figures;
  campaign.run(plan, [&figures](measure::Trace trace) { figures.add(trace); });
  obs_server.reset();  // the live plane serves the campaign only
  const auto& campaign_obs = campaign.metrics();
  const auto& telemetry = campaign.telemetry();
  const auto& flights = campaign.flight_events();
  // Runtime metrics are wall-clock noise, exported only when several
  // workers ran or the live plane was up.
  const auto runtime_metrics = campaign.runtime_metrics();
  const bool have_runtime = workers > 1 || serve_obs >= 0;
  if (!record.empty()) {
    if (!obs::write_flight_files(record, flights)) {
      std::fprintf(stderr, "cannot write %s.pcapng / %s.trace.json\n", record.c_str(),
                   record.c_str());
      return 1;
    }
    std::printf("      recorded %zu flight events -> %s.pcapng, %s.trace.json\n",
                flights.size(), record.c_str(), record.c_str());
  }
  for (const auto& failure : campaign.failures()) {
    std::fprintf(stderr, "      trace %d (%s) quarantined: %s\n", failure.index,
                 failure.vantage.c_str(), failure.message.c_str());
  }

  const auto& per_trace = figures.per_trace();
  std::printf("\nFigure 2a: ECT(0)-reachability of not-ECT-reachable servers\n%s\n",
              analysis::render_figure2a(per_trace).c_str());
  std::printf("Figure 2b: converse\n%s\n",
              analysis::render_figure2b(per_trace).c_str());

  const auto& diffs = figures.differential();
  std::printf("Figure 3a: per-server differential reachability (aggregate)\n%s\n",
              analysis::render_figure3a(diffs).c_str());
  std::printf("Figure 3b: converse\n%s\n",
              analysis::render_figure3b(diffs).c_str());

  std::printf("Figure 5: TCP reachability and ECN negotiation\n%s\n",
              analysis::render_figure5(per_trace, params.server_count).c_str());

  const auto summary = figures.summary();
  std::printf("Figure 6: adoption trend with our measured point\n%s\n",
              analysis::render_figure6(
                  analysis::trend_with_measurement(summary.pct_tcp_negotiating_ecn))
                  .c_str());

  std::printf("Table 2: UDP vs TCP ECN failure correlation\n%s\n",
              analysis::render_table2(figures.correlation()).c_str());

  // Loss autopsy: the drop ledger's answer to "why is that Figure 2 cell
  // unreachable" -- every failed probe above has an attributed cause here.
  const auto autopsy = obs::render_loss_autopsy(campaign_obs.ledger);
  if (!autopsy.empty()) std::printf("%s\n", autopsy.c_str());
  if (telemetry.active()) {
    const auto sketched = obs::render_sketched_summary(telemetry);
    if (!sketched.empty()) std::printf("%s\n", sketched.c_str());
  }

  // -- Section 4.2: traceroutes ---------------------------------------------
  std::printf("[3/4] running ECN traceroutes from all vantages...\n");
  const auto observations = world.run_traceroutes(2);
  const auto hops = analysis::analyze_hops(observations, world.ip2as());
  std::printf("\n%s\n",
              analysis::render_figure4(hops, observations, 10).c_str());

  // -- headline summary ------------------------------------------------------
  std::printf("[4/4] headline numbers vs the paper:\n%s\n",
              analysis::render_summary(summary).c_str());

  if (!metrics_out.empty()) {
    if (!obs::write_metrics_files(metrics_out, campaign_obs,
                                  have_runtime ? &runtime_metrics : nullptr,
                                  telemetry.active() ? &telemetry : nullptr)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics written to %s (+ Prometheus sibling)\n", metrics_out.c_str());
  }
  return 0;
}
