// The calibrated study world: the synthetic Internet, the NTP pool with its
// co-located web servers, the DNS discovery infrastructure, the 13 vantage
// points, and every middlebox behaviour the paper observed or inferred:
//
//   * ~12 servers behind firewalls that drop ECT-marked UDP (Figure 3a's
//     persistent spikes; placed on the servers' access links, i.e. "near the
//     destination" as Section 4.1 infers);
//   * one server reachable only with ECT(0)-marked UDP and two "Phoenix
//     Public Library" servers that drop not-ECT UDP from EC2 source
//     prefixes only (Figure 3b);
//   * ECN bleaching on a small set of links, mostly at AS boundaries
//     (Section 4.2's 59.1%), a tenth of them probabilistic ("sometimes
//     strips");
//   * per-vantage access pathologies: a congested, ToS-sensitive home
//     access for McQuistin, a noisy wireless campus network;
//   * pool churn: servers leave between the April/May and July/August
//     batches, and a few percent are offline for any given trace; a small
//     minority rate-limit NTP responses (transient false unreachability).
//
// All randomness derives from WorldParams::seed: the same seed reproduces
// the same world, campaign, and numbers.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ecnprobe/chaos/fault_plan.hpp"
#include "ecnprobe/dns/pool_dns.hpp"
#include "ecnprobe/geo/geo.hpp"
#include "ecnprobe/http/http_service.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/measure/vantage.hpp"
#include "ecnprobe/ntp/ntp.hpp"
#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/tcp/tcp.hpp"
#include "ecnprobe/topology/internet.hpp"

namespace ecnprobe::scenario {

struct WorldParams {
  std::uint64_t seed = 42;

  // -- pool composition ----------------------------------------------------
  int server_count = 2500;
  /// Fraction of pool hosts running the encouraged web server (calibrated
  /// so ~1334 of 2500 respond to HTTP given availability).
  double web_server_fraction = 0.565;
  /// Fraction of web servers willing to negotiate ECN (paper: 82.0%).
  double web_ecn_fraction = 0.82;
  /// Servers rate-limiting NTP responses (transient unreachability).
  double rate_limited_fraction = 0.03;
  double rate_limited_response_prob = 0.70;
  /// Conntrack-style greylisting firewalls in front of every server: the
  /// per-window probability of demanding a warm-up burst (causing the
  /// Figure 2b "reachable with ECT(0) but not not-ECT" transients) or of
  /// being wedged for the whole probe sequence.
  double greylist_flaky_prob = 0.006;
  double greylist_dead_prob = 0.001;

  // -- observed middlebox pathologies --------------------------------------
  int ect_udp_firewalled_servers = 12;  ///< drop ECT UDP near destination
  int ect_required_servers = 1;         ///< drop not-ECT UDP (Figure 3b oddity)
  int ec2_sensitive_servers = 2;        ///< drop not-ECT UDP from EC2 prefixes
  int bleach_inter_as_links = 12;       ///< ECN bleachers on AS-boundary links
  int bleach_intra_as_links = 60;       ///< ...and inside ASes
  double bleach_sometimes_fraction = 0.30;  ///< of bleachers, probabilistic
  double bleach_sometimes_prob = 0.5;

  // -- availability / churn -------------------------------------------------
  double offline_prob = 0.055;             ///< per server per trace
  double batch2_departed_fraction = 0.05;  ///< leave the pool between batches

  // -- topology -------------------------------------------------------------
  topology::TopologyParams topology;

  // -- fault injection ------------------------------------------------------
  /// Chaos profile compiled into packet policies and host hooks at world
  /// construction. Defaults to the inert "none" plan. Fault placement and
  /// every fault decision derive from (seed, faults), through RNG streams
  /// private to the chaos layer -- installing faults never perturbs the
  /// fault-free datapath draws, and the same (seed, plan) reproduces the
  /// same failures at any worker count.
  chaos::FaultPlan faults;

  // -- flight recorder ------------------------------------------------------
  /// Ring capacity (events) for the per-world flight recorder; 0 leaves it
  /// disarmed (the default -- recording then costs one bool test per
  /// packet). Recording is observation-only: arming it cannot change any
  /// simulation outcome, only what gets written about it.
  std::size_t flight_recorder_capacity = 0;

  // -- telemetry fidelity ----------------------------------------------------
  /// Exact (default) keeps the per-packet ledger/recorder pipeline
  /// byte-identical to always. Sketched folds most traces into
  /// count-min/log-histogram sketches with declared error bounds, keeping
  /// exact records only for every sample_every-th trace -- memory becomes
  /// O(servers), not O(servers x traces). A zero telemetry seed inherits
  /// `seed` at world construction, so estimators stay pure functions of
  /// (config, seed, trace).
  obs::TelemetryConfig telemetry;

  // -- deterministic time series ---------------------------------------------
  /// Sim-time series config. When enabled, per-trace counters and RTT
  /// buckets are snapshotted into fixed-width sim-time windows, epoch-
  /// relative per trace, and folded in plan order -- the series is part of
  /// the campaign obs snapshot and therefore byte-identical at any worker
  /// count. Disabled by default (one bool test per event).
  obs::TimeSeriesConfig timeseries;

  /// Paper-scale world (2500 servers, 400 stub ASes). The default.
  static WorldParams paper();
  /// Small world for unit/integration tests (fast to build and probe).
  static WorldParams small(std::uint64_t seed = 42);
  /// Linearly scales server and AS counts by `factor` in (0, 1].
  WorldParams scaled(double factor) const;
};

/// One pool member with everything attached to it.
struct PoolServer {
  wire::Ipv4Address address;
  topology::Internet::Attachment attachment;
  netsim::Host* host = nullptr;
  const geo::CountryInfo* country = nullptr;  ///< null for "Unknown" servers
  std::unique_ptr<ntp::NtpServerService> ntp_service;
  std::unique_ptr<tcp::TcpStack> tcp_stack;
  std::unique_ptr<http::HttpServerService> web;

  bool runs_web = false;
  bool web_ecn = false;
  bool rate_limited = false;
  bool firewalled_ect_udp = false;
  bool ect_required = false;
  bool ec2_sensitive = false;
  bool departed = false;  ///< left the pool before batch 2
  bool online = true;     ///< current trace's availability
};

class World {
public:
  explicit World(WorldParams params);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  netsim::Simulator& sim() { return sim_; }
  topology::Internet& internet() { return *internet_; }
  netsim::Network& net() { return internet_->net(); }
  /// This world's private observability: metrics registry + drop ledger.
  /// Wired into the network at construction, so nothing this world does
  /// pollutes (or races with) another world's counters.
  obs::Observability& obs() { return obs_; }
  const geo::GeoDatabase& geodb() const { return geodb_; }
  const WorldParams& params() const { return params_; }
  ntp::SimClock clock() const { return clock_; }

  // -- pool ---------------------------------------------------------------
  std::vector<wire::Ipv4Address> server_addresses() const;
  const std::vector<PoolServer>& servers() const { return servers_; }
  PoolServer& server(std::size_t i) { return servers_[i]; }

  // -- vantage points -------------------------------------------------------
  measure::Vantage& vantage(const std::string& name);
  std::map<std::string, measure::Vantage*> vantage_map();
  const std::vector<std::string>& vantage_names() const { return vantage_names_; }
  /// Address of a vantage host (for reverse-path experiments).
  wire::Ipv4Address vantage_address(const std::string& name);

  // -- DNS ------------------------------------------------------------------
  wire::Ipv4Address resolver_address() const { return resolver_address_; }
  std::shared_ptr<dns::PoolZones> zones() { return zones_; }
  std::vector<std::string> pool_zone_names() const;

  // -- campaign support -----------------------------------------------------
  /// Campaign availability hook. A pure function of (batch, index) given
  /// the world seed: batch-2 pool departures are re-derived from a fixed
  /// churn stream (not accumulated), per-trace offline draws from a
  /// per-index stream. Idempotent and order-independent, so any worker can
  /// reproduce the availability state of any trace on its own world clone.
  void before_trace(const std::string& vantage, int batch, int index);

  /// Full determinism contract for one campaign trace: availability via
  /// before_trace *plus* the per-trace epoch reset -- network datapath and
  /// per-node RNG streams re-derived from (seed, index), middlebox
  /// conntrack/queue state cleared, TCP transients dropped. After this
  /// call, the trace's outcome is a pure function of (WorldParams, batch,
  /// index), independent of whatever ran on this world before -- which is
  /// why the merged results are byte-identical at any worker count. Must
  /// be called from a quiescent simulator (no pending events).
  void begin_trace_epoch(const std::string& vantage, int batch, int index);

  /// Drop-ledger attribution for a trace this world had to throw away:
  /// records Measure/TraceQuarantined against the vantage. The shard and
  /// trace-autopsy both use it, so their reports agree byte for byte.
  void quarantine_trace(const std::string& vantage);

  // -- observability ---------------------------------------------------------
  /// Marks the current registry/ledger position as the delta baseline.
  /// begin_trace_epoch calls this automatically; collect_obs_delta reads
  /// everything recorded since the last mark.
  void mark_obs_baseline();
  /// Everything the registry and ledger accumulated since the last
  /// mark_obs_baseline() -- one trace's worth when bracketed by epochs.
  obs::ObsSnapshot collect_obs_delta() const;

  /// Moves out the flight-recorder events since the last
  /// mark_obs_baseline() -- one trace's worth when bracketed by epochs --
  /// and empties the ring. Empty unless params.flight_recorder_capacity
  /// armed the recorder.
  std::vector<obs::FlightEvent> take_flight_slice();

  /// Runs `repetitions` ECN traceroutes from each vantage to every server.
  /// Begins its own epoch ("traceroute-epoch"), so the observations are a
  /// pure function of the world seed, independent of any campaign that ran
  /// on this world before.
  ///
  /// Ledger contract: the phase keeps no drop-ledger rows. Each vantage's
  /// pass truncates the ledger back to its size when the phase began, so
  /// rows recorded before the phase and every obs mark survive, and
  /// collect_obs_delta().ledger reads as it did before the phase. The
  /// phase's drops and rewrites still count where they are counted as
  /// recorded: `ecn_drops_total`/`ecn_rewrites_total`, the time series
  /// and the sketches.
  std::vector<measure::TracerouteObservation> run_traceroutes(
      int repetitions = 2, traceroute::TracerouteOptions options = {});

  /// Runs the DNS discovery crawl from the given vantage; returns the
  /// discovered addresses.
  std::vector<wire::Ipv4Address> run_discovery(const std::string& vantage,
                                               int rounds = 160);

  // -- ground truth (for tests and EXPERIMENTS.md validation) ----------------
  std::vector<wire::Ipv4Address> ground_truth_firewalled() const;
  const topology::IpToAsMap& ip2as() const { return internet_->ip2as(); }

  /// Circuit-breaker group resolver over THIS world's ip2as map: "AS<n>",
  /// or "AS-unknown" for unmapped addresses. The returned closure captures
  /// `this`; it must not outlive the world (the executor binds it per
  /// worker clone, through WorldShard::breaker_group).
  sched::GroupResolver breaker_group_resolver();

  /// Enables an RFC 3168 AQM (CE-marking) on the access link of server `i`
  /// in the server->vantage direction -- used by the ECN-usability
  /// extension experiment.
  void enable_congestion_at_server(std::size_t i, double mark_prob, double drop_prob);

private:
  void build_pool();
  void build_vantages();
  void build_dns();
  void place_middleboxes();
  void install_faults();
  void apply_availability(int batch);

  WorldParams params_;
  util::Rng rng_;
  obs::Observability obs_;
  netsim::Simulator sim_;
  std::unique_ptr<topology::Internet> internet_;
  geo::GeoDatabase geodb_;
  /// Sim-time origin of the current trace epoch; SimClock points at this so
  /// NTP wall timestamps in wire bytes restart per trace (hermeticity).
  std::int64_t clock_epoch_origin_ns_ = 0;
  ntp::SimClock clock_;

  std::vector<PoolServer> servers_;
  std::map<topology::Asn, const geo::CountryInfo*> as_country_;

  struct VantageEntry {
    std::string name;
    netsim::Host* host = nullptr;
    std::unique_ptr<measure::Vantage> vantage;
  };
  std::vector<VantageEntry> vantages_;
  std::vector<std::string> vantage_names_;

  std::shared_ptr<dns::PoolZones> zones_;
  netsim::Host* resolver_host_ = nullptr;
  std::unique_ptr<dns::DnsServerService> resolver_service_;
  wire::Ipv4Address resolver_address_;

  obs::MetricsSnapshot obs_baseline_;
  std::size_t obs_drop_mark_ = 0;
  std::size_t obs_rewrite_mark_ = 0;
  std::size_t obs_flight_mark_ = 0;
};

/// measure::CampaignShard over a worker-private World built from `params`.
/// Constructed by the shard factory on the worker thread, so the world's
/// Simulator is owned by that thread.
class WorldShard final : public measure::CampaignShard {
public:
  explicit WorldShard(const WorldParams& params) : world_(params) {}

  netsim::Simulator& sim() override { return world_.sim(); }
  std::map<std::string, measure::Vantage*> vantages() override {
    return world_.vantage_map();
  }
  std::vector<wire::Ipv4Address> servers() override { return world_.server_addresses(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    world_.begin_trace_epoch(vantage, batch, index);
  }
  obs::ObsSnapshot collect_trace_metrics() override {
    return world_.collect_obs_delta();
  }
  std::vector<obs::FlightEvent> collect_trace_events() override {
    return world_.take_flight_slice();
  }
  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    (void)batch;
    (void)index;
    world_.quarantine_trace(vantage);
  }
  sched::GroupResolver breaker_group() override {
    return world_.breaker_group_resolver();
  }

  World& world() { return world_; }

private:
  World world_;
};

/// Shard factory for ParallelCampaign: every worker gets its own World
/// rebuilt from the same params (world construction is a pure function of
/// the seed, so the clones are identical).
measure::ParallelCampaign::ShardFactory world_shard_factory(WorldParams params);

/// Executor options for a campaign over worlds built from `params` -- the
/// one place every front end gets them from: sched.seed defaults to the
/// world seed once the supervisor is armed (the jitter streams key off
/// it), the telemetry config carries the seed the worker worlds resolve
/// (or the campaign aggregate would hash into different sketch cells than
/// the shards' deltas), and `halt_after` > 0 simulates a crash after that
/// many live traces, 0 falling back to params.faults.crash_after_traces.
measure::ParallelCampaign::Options campaign_options(const WorldParams& params,
                                                    const measure::ProbeOptions& probe = {},
                                                    int workers = 1, int halt_after = 0);

/// Journal metadata binding a checkpoint to the campaign it came from:
/// a journal opened with a different (params, plan, probe discipline) is
/// refused, so a resume can only ever replay traces of the same campaign.
/// The sched, telemetry and time-series fields are canonical and resolved
/// as campaign_options resolves them, so equivalent specs bind alike.
measure::JournalMeta journal_meta(const WorldParams& params,
                                  const measure::CampaignPlan& plan,
                                  const measure::ProbeOptions& probe);

/// Everything one campaign run produces, merged in plan order.
struct CampaignRun {
  std::vector<measure::Trace> traces;  ///< failed traces omitted, never duplicated
  std::vector<measure::TraceFailure> failures;  ///< campaign-index order
  obs::ObsSnapshot metrics;  ///< metrics + drop ledger + time series
  std::vector<obs::FlightEvent> flights;  ///< empty unless the recorder is armed
  obs::TelemetryAggregate telemetry;  ///< inactive unless telemetry is sketched
};

/// Runs `plan` to completion on `workers` isolated worlds built from
/// `params` (options from campaign_options). With `journal`, journaled
/// traces are replayed instead of re-run and live traces are checkpointed
/// write-ahead. The result is byte-identical at any worker count.
CampaignRun run_campaign(const WorldParams& params, const measure::CampaignPlan& plan,
                         const measure::ProbeOptions& probe = {}, int workers = 1,
                         measure::CampaignJournal* journal = nullptr, int halt_after = 0);

}  // namespace ecnprobe::scenario
