// The ecnprobe command-line tool: run the study's stages individually and
// pipe results between them as CSV/pcap.
//
//   ecnprobe discover      [--scale F] [--seed N] [--rounds R] [--vantage NAME]
//   ecnprobe campaign      [--scale F] [--seed N] [--traces N] [--workers N]
//                          [--faults SPEC] [--telemetry SPEC] [--timeseries SPEC]
//                          [--sched SPEC] [--out FILE] [--metrics-out FILE]
//                          [--checkpoint FILE | --resume FILE] [--halt-after N]
//                          [--record PREFIX] [--serve-obs PORT] [--profile]
//   ecnprobe analyze       <traces.csv>
//   ecnprobe traceroute    [--scale F] [--seed N] [--vantage NAME] [--count N]
//   ecnprobe pcap          [--scale F] [--seed N] [--vantage NAME] [--out FILE]
//   ecnprobe report        [--scale F] [--seed N] [--out FILE]
//   ecnprobe trace-autopsy --trace N [--server ADDR] [--resume FILE] [--scale F]
//                          [--seed N] [--traces N] [--faults SPEC]
//                          [--telemetry SPEC] [--sched SPEC]
//
// The campaign keys (--scale ... --sched) are scenario::CampaignSpec's, the
// same keys and rules as ntp_pool_study's flags and an ecnprobed spec.
// Option parsing is strict: a flag the command does not read, a missing
// value or a malformed one ("--workers banana", a negative trace count)
// exits 2 with the usage message instead of being ignored or coerced.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ecnprobe/chaos/fault_plan.hpp"
#include "ecnprobe/measure/journal.hpp"

#include "ecnprobe/analysis/autopsy.hpp"
#include "ecnprobe/analysis/figures.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/analysis/geosummary.hpp"
#include "ecnprobe/analysis/markdown_report.hpp"
#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/measure/probe.hpp"
#include "ecnprobe/http/obs_server.hpp"
#include "ecnprobe/netsim/pcap.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/obs/flight_export.hpp"
#include "ecnprobe/obs/profiler.hpp"
#include "ecnprobe/scenario/spec.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/dissect.hpp"

namespace {

using namespace ecnprobe;

struct Options {
  /// The campaign keys; commands that take only some of them get the
  /// defaults for the rest.
  scenario::CampaignSpec spec;
  int rounds = 0;
  int count = 8;
  int halt_after = 0;
  std::string vantage = "UGla wired";
  std::string out;
  std::string metrics_out;
  std::string input;
  std::string checkpoint;  ///< journal path (--checkpoint or --resume)
  bool resume = false;     ///< --resume: the journal must already exist
  std::string record;      ///< flight-recorder output prefix (--record)
  int trace = -1;          ///< trace-autopsy: campaign trace index
  std::optional<wire::Ipv4Address> server;  ///< trace-autopsy: restrict to this server
  /// Live observability plane port (--serve-obs): -1 = off, 0 = ephemeral.
  int serve_obs = -1;
  /// Wall-clock self-profiler (--profile); outside the determinism
  /// contract, never touches campaign outputs.
  bool profile = false;
};

struct Command {
  std::string_view name;
  int (*run)(const Options&);
  /// Every flag the command reads, campaign keys included; any other flag
  /// is refused.
  std::vector<std::string_view> flags;
};

/// Parses a front-end integer flag's value into `out` if it lies in [lo, hi].
bool int_in(const std::string& text, int lo, int hi, int* out) {
  const auto value = util::parse_integer<int>(text);
  if (!value || *value < lo || *value > hi) return false;
  *out = *value;
  return true;
}

bool parse(const Command& command, int argc, char** argv, Options* options) {
  std::vector<std::string> spec_args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (command.name == "analyze" && options->input.empty()) {
        options->input = arg;
        continue;
      }
      std::fprintf(stderr, "ecnprobe: unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const auto eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(command.flags.begin(), command.flags.end(), name) == command.flags.end()) {
      std::fprintf(stderr, "ecnprobe: %s does not take --%s\n",
                   std::string(command.name).c_str(), name.c_str());
      return false;
    }
    if (name == "profile" && eq == std::string::npos) {
      options->profile = true;
      continue;
    }
    std::string v;
    if (eq != std::string::npos) {
      v = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      v = argv[++i];
    } else {
      std::fprintf(stderr, "ecnprobe: --%s requires a value\n", name.c_str());
      return false;
    }
    bool ok = true;
    if (name == "rounds") {
      ok = int_in(v, 0, 1 << 30, &options->rounds);
    } else if (name == "count") {
      ok = int_in(v, 1, 1 << 30, &options->count);
    } else if (name == "halt-after") {
      ok = int_in(v, 0, 1 << 30, &options->halt_after);
    } else if (name == "serve-obs") {
      ok = int_in(v, 0, 65535, &options->serve_obs);
    } else if (name == "trace") {
      ok = int_in(v, 0, 1 << 30, &options->trace);
    } else if (name == "profile") {
      ok = false;  // takes no value
    } else if (name == "vantage") {
      options->vantage = v;
    } else if (name == "out") {
      options->out = v;
    } else if (name == "metrics-out") {
      options->metrics_out = v;
    } else if (name == "checkpoint" || name == "resume") {
      options->checkpoint = v;
      options->resume = name == "resume";
    } else if (name == "record") {
      options->record = v;
    } else if (name == "server") {
      const auto address = wire::Ipv4Address::parse(v);
      ok = address.has_value();
      if (ok) options->server = *address;
    } else {
      // A campaign key: validated with the others by the spec below.
      spec_args.push_back("--" + name + "=" + v);
    }
    if (!ok) {
      std::fprintf(stderr, "ecnprobe: bad value for --%s: '%s'\n", name.c_str(), v.c_str());
      return false;
    }
  }
  const auto spec = scenario::CampaignSpec::from_args(spec_args);
  if (!spec) {
    std::fprintf(stderr, "ecnprobe: %s\n", spec.error().message.c_str());
    return false;
  }
  options->spec = *spec;
  return true;
}

/// Set by the SIGINT/SIGTERM handler when a checkpointed campaign should
/// drain: a watcher thread turns it into ParallelCampaign::request_halt(),
/// so every started trace still reaches its write-ahead journal append and
/// the process exits with a resumable checkpoint instead of dying
/// mid-trace.
volatile std::sig_atomic_t g_drain_signal = 0;

void on_drain_signal(int signo) { g_drain_signal = signo; }

int cmd_discover(const Options& options) {
  scenario::World world(options.spec.resolve().params);
  const int rounds = options.rounds > 0
                         ? options.rounds
                         : 40 + world.params().server_count / 12;
  const auto found = world.run_discovery(options.vantage, rounds);
  std::fprintf(stderr, "discovered %zu servers (%d rounds from '%s')\n", found.size(),
               rounds, options.vantage.c_str());
  std::printf("address\n");
  for (const auto& addr : found) std::printf("%s\n", addr.to_string().c_str());
  return 0;
}

int cmd_campaign(const Options& options) {
  auto resolved = options.spec.resolve();
  auto& params = resolved.params;
  const auto& plan = resolved.plan;
  const int workers = options.spec.workers;
  if (!options.record.empty()) params.flight_recorder_capacity = 1 << 16;
  if (options.profile) obs::Profiler::process().set_enabled(true);
  std::fprintf(stderr, "running %d traces x %d servers (%d worker%s, faults: %s)...\n",
               plan.total_traces(), params.server_count, workers, workers == 1 ? "" : "s",
               params.faults.name.c_str());

  // Checkpoint journal: --resume requires the file, --checkpoint creates it.
  measure::CampaignJournal journal;
  measure::CampaignJournal* journal_ptr = nullptr;
  if (!options.checkpoint.empty()) {
    if (options.resume && !std::ifstream(options.checkpoint).is_open()) {
      std::fprintf(stderr, "ecnprobe: cannot resume: no journal at %s\n",
                   options.checkpoint.c_str());
      return 1;
    }
    std::string error;
    const auto meta = scenario::journal_meta(params, plan, resolved.probe);
    if (!journal.open(options.checkpoint, meta, &error)) {
      std::fprintf(stderr, "ecnprobe: %s\n", error.c_str());
      return 1;
    }
    journal_ptr = &journal;
    if (!journal.entries().empty()) {
      std::fprintf(stderr, "resuming: %zu of %d traces already journaled\n",
                   journal.entries().size(), plan.total_traces());
    }
    // With a journal active, SIGINT/SIGTERM drain instead of kill: stop
    // claiming new traces, let in-flight ones reach their write-ahead
    // append, exit 3 with a resumable checkpoint on disk.
    g_drain_signal = 0;
    std::signal(SIGINT, on_drain_signal);
    std::signal(SIGTERM, on_drain_signal);
  }

  // The CSV and campaign metrics are byte-identical at any --workers;
  // it only changes wall-clock time.
  measure::ParallelCampaign campaign(
      scenario::world_shard_factory(params),
      scenario::campaign_options(params, resolved.probe, workers, options.halt_after));
  if (journal_ptr != nullptr) campaign.set_journal(journal_ptr);
  // Live observability plane: a real HTTP listener rendering from the
  // executor's thread-safe snapshots. Strictly read-only -- nothing the
  // campaign computes ever depends on whether (or when) it is scraped.
  std::unique_ptr<http::ObsHttpServer> obs_server;
  if (options.serve_obs >= 0) {
    http::ObsHttpServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(options.serve_obs);
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
      std::fprintf(stderr, "ecnprobe: --serve-obs: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "live obs plane: http://127.0.0.1:%u  (/metrics /progress /events)\n",
                 static_cast<unsigned>(obs_server->port()));
  }
  // Progress line on a monitor thread: progress() is a lock-cheap
  // snapshot of the runtime registry, safe to poll while workers run.
  std::atomic<bool> running{true};
  // Signal-to-halt bridge: request_halt() is not async-signal-safe to
  // call from the handler itself, so a watcher thread polls the flag.
  std::thread drain_watcher;
  if (journal_ptr != nullptr) {
    drain_watcher = std::thread([&campaign, &running] {
      while (running.load(std::memory_order_relaxed)) {
        if (g_drain_signal != 0) {
          campaign.request_halt();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  std::thread monitor;
  if (isatty(fileno(stderr)) != 0) {
    monitor = std::thread([&] {
      while (running.load(std::memory_order_relaxed)) {
        const auto p = campaign.progress();
        std::fprintf(stderr, "\r  %d/%d traces, %d in flight, %d failed   ",
                     p.completed, p.total, p.in_flight, p.failed);
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
  }
  const auto traces = campaign.run(plan);
  obs_server.reset();  // the live plane serves the campaign only
  running.store(false, std::memory_order_relaxed);
  if (drain_watcher.joinable()) drain_watcher.join();
  if (monitor.joinable()) {
    monitor.join();
    std::fprintf(stderr, "\r  %d/%d traces done%*s\n", campaign.traces_completed(),
                 plan.total_traces(), 20, "");
  }
  for (const auto& failure : campaign.failures()) {
    std::fprintf(stderr, "trace %d (%s) quarantined: %s\n", failure.index,
                 failure.vantage.c_str(), failure.message.c_str());
  }
  const auto& campaign_obs = campaign.metrics();
  const auto& telemetry = campaign.telemetry();
  const auto& flights = campaign.flight_events();
  // Executor runtime metrics are wall-clock noise: exported only when
  // several workers ran or the live plane was up, so a one-worker run's
  // metrics file stays comparable byte for byte.
  const auto runtime = campaign.runtime_metrics();
  const bool have_runtime = workers > 1 || options.serve_obs >= 0;
  if (journal_ptr != nullptr && g_drain_signal != 0) {
    // Drained on a signal: the journal holds every trace that started.
    // Skip the partial exports -- the resume run produces the real ones.
    std::fprintf(stderr,
                 "interrupted (signal %d): %zu of %d traces checkpointed in %s; "
                 "finish with --resume %s\n",
                 static_cast<int>(g_drain_signal), journal.entries().size(),
                 plan.total_traces(), options.checkpoint.c_str(),
                 options.checkpoint.c_str());
    return 3;
  }
  // Export stage timer; reset() before the profile itself is printed so
  // the "export" stage includes every file written below.
  std::optional<obs::Profiler::Scope> export_scope;
  export_scope.emplace("export");
  if (!options.record.empty()) {
    if (!obs::write_flight_files(options.record, flights)) {
      std::fprintf(stderr, "cannot write %s.pcapng / %s.trace.json\n",
                   options.record.c_str(), options.record.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu flight events -> %s.pcapng, %s.trace.json\n",
                 flights.size(), options.record.c_str(), options.record.c_str());
  }
  if (options.out.empty()) {
    measure::write_traces_csv(std::cout, traces);
  } else {
    std::ofstream os(options.out);
    measure::write_traces_csv(os, traces);
    os.close();  // a full disk may only show when the last buffer flushes
    if (os.fail()) {
      std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", options.out.c_str());
  }
  const auto autopsy = obs::render_loss_autopsy(campaign_obs.ledger);
  if (!autopsy.empty()) std::fprintf(stderr, "\n%s", autopsy.c_str());
  if (telemetry.active()) {
    const auto summary = obs::render_sketched_summary(telemetry);
    if (!summary.empty()) std::fprintf(stderr, "\n%s", summary.c_str());
  }
  if (!options.metrics_out.empty()) {
    if (!obs::write_metrics_files(options.metrics_out, campaign_obs,
                                  have_runtime ? &runtime : nullptr,
                                  telemetry.active() ? &telemetry : nullptr)) {
      std::fprintf(stderr, "cannot write %s\n", options.metrics_out.c_str());
      return 1;
    }
    if (options.metrics_out != "-") {
      std::fprintf(stderr, "wrote %s (+ Prometheus sibling)\n",
                   options.metrics_out.c_str());
    }
  }
  export_scope.reset();
  if (options.profile) {
    auto& profiler = obs::Profiler::process();
    if (!options.record.empty()) {
      // Chrome-trace sidecar lands next to the flight recorder's files.
      const std::string trace_path = options.record + ".profile.json";
      if (!profiler.write_chrome_trace(trace_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (chrome trace; load in chrome://tracing)\n",
                   trace_path.c_str());
    }
    std::fprintf(stderr, "profile (wall-clock, unguarded): %s\n",
                 profiler.to_json().c_str());
  }
  return 0;
}

int cmd_trace_autopsy(const Options& options) {
  if (options.trace < 0) {
    std::fprintf(stderr, "ecnprobe: trace-autopsy requires --trace N\n");
    return 2;
  }
  auto resolved = options.spec.resolve();
  auto& params = resolved.params;
  const auto& plan = resolved.plan;
  params.flight_recorder_capacity = 1 << 16;
  const auto schedule = measure::expand_schedule(plan);
  if (static_cast<std::size_t>(options.trace) >= schedule.size()) {
    std::fprintf(stderr, "ecnprobe: --trace %d out of range (campaign has %zu traces)\n",
                 options.trace, schedule.size());
    return 2;
  }
  // Optional journal cross-check: with --resume FILE the journal metadata
  // must match this invocation's plan/faults/seed, so the autopsy is
  // guaranteed to replay the same campaign the journal came from.
  if (!options.checkpoint.empty()) {
    if (!std::ifstream(options.checkpoint).is_open()) {
      std::fprintf(stderr, "ecnprobe: no journal at %s\n", options.checkpoint.c_str());
      return 1;
    }
    measure::CampaignJournal journal;
    std::string error;
    const auto meta = scenario::journal_meta(params, plan, resolved.probe);
    if (!journal.open(options.checkpoint, meta, &error)) {
      std::fprintf(stderr, "ecnprobe: %s\n", error.c_str());
      return 1;
    }
    if (journal.entries().count(options.trace) != 0) {
      std::fprintf(stderr, "trace %d is journaled as completed; reconstructing it by "
                   "deterministic re-run\n", options.trace);
    }
  }

  // Re-run exactly the requested trace. Per-trace epoch hermeticity makes
  // the trace a pure function of (params, batch, index), so this replays
  // the campaign's trace bit-for-bit -- now with the recorder armed.
  const auto& planned = schedule[static_cast<std::size_t>(options.trace)];
  scenario::World world(params);
  try {
    world.begin_trace_epoch(planned.vantage, planned.batch, options.trace);
    auto& vantage = world.vantage(planned.vantage);
    vantage.capture().clear();
    // The campaign's own supervisor defaults (and the breaker groups of
    // this world) so an autopsy of a supervised campaign replays the trace
    // bit for bit.
    auto probe = scenario::campaign_options(params, resolved.probe).probe;
    if (probe.sched.breaker.enabled) probe.breaker_group = world.breaker_group_resolver();
    measure::TraceRunner runner(vantage, world.server_addresses(), probe);
    bool done = false;
    runner.run(planned.batch, options.trace, [&](measure::Trace) { done = true; });
    world.sim().run();
    if (!done) {
      std::fprintf(stderr, "ecnprobe: trace %d stalled\n", options.trace);
      return 1;
    }
  } catch (const std::exception& e) {
    // Same path the campaign executor takes: quarantine, then render
    // whatever the recorder saw before the fault fired.
    world.sim().clear_pending();
    world.quarantine_trace(planned.vantage);
    std::fprintf(stderr, "trace %d (%s) quarantined: %s\n", options.trace,
                 planned.vantage.c_str(), e.what());
  }

  analysis::AutopsyRequest request;
  request.trace = options.trace;
  request.server = options.server;
  const auto delta = world.collect_obs_delta();
  // Under sketched telemetry an unsampled trace suppresses its per-packet
  // flight records (they fold into the campaign sketch instead). Degrade to
  // the exact per-trace cause summary rather than an empty causal chain.
  if (params.telemetry.sketched() &&
      !params.telemetry.resolved(params.seed).keeps_exact_trace(options.trace)) {
    const auto report = analysis::render_sketched_autopsy(
        delta.telemetry, params.telemetry.resolved(params.seed), request);
    std::fputs(report.c_str(), stdout);
    return 0;
  }
  const auto report = analysis::render_trace_autopsy(
      world.take_flight_slice(), delta.ledger, world.ip2as(), request);
  std::fputs(report.c_str(), stdout);
  return 0;
}

int cmd_analyze(const Options& options) {
  std::ifstream is(options.input);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", options.input.c_str());
    return 1;
  }
  const auto traces = measure::read_traces_csv(is);
  if (!traces) {
    std::fprintf(stderr, "parse error: %s\n", traces.error().message.c_str());
    return 1;
  }
  std::printf("loaded %zu traces\n\n", traces->size());
  const analysis::FigureFold figures(*traces);
  const auto& per_trace = figures.per_trace();
  std::printf("Figure 2a:\n%s\n", analysis::render_figure2a(per_trace).c_str());
  std::printf("Figure 2b:\n%s\n", analysis::render_figure2b(per_trace).c_str());
  std::printf("Figure 3a (aggregate):\n%s\n",
              analysis::render_figure3a(figures.differential()).c_str());
  std::printf("Figure 5:\n%s\n",
              analysis::render_figure5(per_trace, figures.server_count()).c_str());
  std::printf("Table 2:\n%s\n", analysis::render_table2(figures.correlation()).c_str());
  std::printf("Summary:\n%s", analysis::render_summary(figures.summary()).c_str());
  return 0;
}

int cmd_traceroute(const Options& options) {
  scenario::World world(options.spec.resolve().params);
  auto& vantage = world.vantage(options.vantage);
  const auto servers = world.server_addresses();
  const int n = std::min<int>(options.count, static_cast<int>(servers.size()));
  int remaining = n;
  std::size_t cursor = 0;
  std::function<void()> next = [&]() {
    if (remaining-- <= 0) return;
    const auto target = servers[cursor];
    cursor += servers.size() / static_cast<std::size_t>(n);
    vantage.tracer().trace(target, traceroute::TracerouteOptions{},
                           [&, target](const traceroute::PathRecord& record) {
                             std::printf("-> %s\n", target.to_string().c_str());
                             for (const auto& hop : record.hops) {
                               if (!hop.responded) {
                                 std::printf("  %2d  *\n", hop.ttl);
                                 continue;
                               }
                               std::printf("  %2d  %c %s\n", hop.ttl,
                                           hop.ecn_intact() ? '+' : '-',
                                           hop.responder.to_string().c_str());
                             }
                             next();
                           });
  };
  next();
  world.sim().run();
  return 0;
}

int cmd_report(const Options& options) {
  const auto [params, plan, probe] = options.spec.resolve();
  std::fprintf(stderr, "running %d traces x %d servers...\n", plan.total_traces(),
               params.server_count);
  analysis::ReportInputs inputs;
  // The traces are folded and freed here, before the traceroutes: the
  // report peaks in that phase.
  inputs.figures = analysis::FigureFold(scenario::run_campaign(params, plan, probe).traces);
  std::fprintf(stderr, "running traceroutes...\n");
  scenario::World world(params);
  inputs.traceroutes = world.run_traceroutes(2);
  inputs.ip2as = &world.ip2as();
  inputs.geo = analysis::summarize_geo(world.server_addresses(), world.geodb());
  inputs.title = "ECN-with-UDP measurement report (scale " +
                 std::to_string(options.spec.scale) + ", seed " +
                 std::to_string(options.spec.seed) + ")";
  const auto report = analysis::render_markdown_report(inputs);
  if (options.out.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream os(options.out);
    os << report;
    os.close();
    if (os.fail()) {
      std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", options.out.c_str());
  }
  return 0;
}

int cmd_pcap(const Options& options) {
  scenario::World world(options.spec.resolve().params);
  auto& vantage = world.vantage(options.vantage);
  bool done = false;
  measure::probe_server(vantage, world.servers()[0].address, measure::ProbeOptions{},
                        [&](const measure::ServerResult&) { done = true; });
  world.sim().run();
  if (!done) {
    std::fprintf(stderr, "probe did not complete\n");
    return 1;
  }
  const std::string path = options.out.empty() ? "ecnprobe.pcap" : options.out;
  if (!netsim::write_pcap_file(path, vantage.capture())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu packets to %s\n", vantage.capture().packets().size(),
               path.c_str());
  for (const auto& packet : vantage.capture().packets()) {
    std::printf("%9.6f %s %s\n", packet.time.to_seconds(),
                packet.dir == netsim::Direction::Tx ? ">" : "<",
                wire::dissect(packet.dgram).c_str());
  }
  return 0;
}

int usage() {
  std::string profiles;
  for (const auto& name : chaos::FaultPlan::profile_names()) {
    profiles += (profiles.empty() ? "" : ", ") + name;
  }
  std::fprintf(stderr,
               "usage: ecnprobe <command> [options]\n"
               "  discover       enumerate the pool via DNS          [--scale --seed --rounds --vantage]\n"
               "  campaign       run the measurement campaign -> CSV [campaign keys] [--out --metrics-out]\n"
               "                 checkpointing                       [--checkpoint FILE | --resume FILE] [--halt-after N]\n"
               "  analyze        figures/tables from a traces CSV    <traces.csv>\n"
               "  traceroute     ECN traceroute listings             [--scale --seed --vantage --count]\n"
               "  pcap           probe one server, dump pcap+dissection [--scale --seed --vantage --out]\n"
               "  report         full campaign -> Markdown report    [--scale --seed --out]\n"
               "  trace-autopsy  causal chain for one campaign trace --trace N [--server ADDR --resume FILE]\n"
               "                 [--scale --seed --traces --faults --telemetry --sched]\n"
               "campaign keys (the same as ntp_pool_study's flags and an ecnprobed spec's keys):\n"
               "  --scale F in (0, 1]  --seed N  --traces N in [0, 1048576] (0 = scaled layout)\n"
               "  --workers N in [1, 256]: shards; output is byte-identical at any count\n"
               "  --faults SPEC: none (default) or a profile: %s\n"
               "    (tunable, e.g. 'wan-chaos,corrupt-prob=0.05,poison=7')\n"
               "  --telemetry exact (default) | sketched[,key=value...]\n"
               "    sketched mode bounds telemetry memory: count-min cause/hop/AS counters\n"
               "    (overcount <= eps*N w.p. 1-delta), log-bucketed RTT (rel. err alpha),\n"
               "    exact flight records for every Nth trace only\n"
               "  --timeseries off (default) | WINDOW_MS | window-ms=N,alpha=F,max-windows=N\n"
               "    deterministic sim-time series in the metrics JSON/Prometheus exports\n"
               "  --sched paper (default) | backoff, then ,key=value overrides\n"
               "    e.g. 'backoff,base-ms=500,factor=2,jitter=0.1,breaker-failures=3'\n"
               "  each key's type and range: docs/robustness.md (faults, sched) and\n"
               "    docs/observability.md (telemetry, timeseries)\n"
               "campaign recording: --record PREFIX writes PREFIX.pcapng + PREFIX.trace.json\n"
               "live plane (campaign): --serve-obs PORT serves GET /metrics /progress /events\n"
               "  (SSE) on 127.0.0.1 while the campaign runs (PORT 0 = ephemeral)\n"
               "self-profiler (campaign): --profile prints wall-clock stage timings; with\n"
               "  --record PREFIX also writes PREFIX.profile.json (chrome://tracing)\n"
               "stdout exports: --metrics-out - streams the metrics JSON to stdout\n"
               "every flag also takes the --flag=VALUE spelling\n",
               profiles.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Command> commands = {
      {"discover", cmd_discover, {"scale", "seed", "rounds", "vantage"}},
      {"campaign",
       cmd_campaign,
       {"scale", "seed", "traces", "workers", "faults", "telemetry", "timeseries", "sched",
        "out", "metrics-out", "checkpoint", "resume", "halt-after", "record", "serve-obs",
        "profile"}},
      {"analyze", cmd_analyze, {}},
      {"traceroute", cmd_traceroute, {"scale", "seed", "vantage", "count"}},
      {"pcap", cmd_pcap, {"scale", "seed", "vantage", "out"}},
      {"report", cmd_report, {"scale", "seed", "out"}},
      {"trace-autopsy",
       cmd_trace_autopsy,
       {"trace", "server", "resume", "scale", "seed", "traces", "faults", "telemetry",
        "sched"}},
  };
  if (argc < 2) return usage();
  const auto command = std::find_if(commands.begin(), commands.end(),
                                    [&](const Command& c) { return c.name == argv[1]; });
  if (command == commands.end()) return usage();
  Options options;
  if (!parse(*command, argc, argv, &options)) return usage();
  return command->run(options);
}
