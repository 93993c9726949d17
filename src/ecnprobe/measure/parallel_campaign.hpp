// The campaign executor. The campaign's traces are independent given the
// determinism contract (every trace is a pure function of the world seed
// and its campaign index), so they shard trivially: a fixed-size worker
// pool pulls per-trace work items from a shared queue, each worker runs
// them on its own isolated, seed-derived world -- no mutable simulation
// state is shared between threads -- and each finished trace waits in one
// plan-order window until every lower-index trace has been folded. The
// fold merges the trace's observability into the campaign totals and hands
// its result to the caller's sink, so both are in plan order and
// byte-identical at any worker count, and no trace is held once folded.
// One worker is the same code path with a pool of one thread.
//
// Thread affinity contract:
//   * CampaignShard instances are created by the factory *on the worker
//     thread* that will use them; the shard's Simulator is therefore owned
//     by that thread (netsim::Simulator enforces single-thread use).
//   * begin_trace() is called on the worker thread and may freely mutate
//     the shard's own world.
//   * The trace sink passed to run() is called under the merge mutex, one
//     trace at a time and in plan order, on whichever thread folds the
//     trace: the worker whose commit completed the plan-order prefix, or
//     the caller of run() for journal replays and the traces a halt left
//     parked. It must not call back into the executor.
//   * run() blocks the calling thread until every trace finished.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/probe.hpp"
#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/obs/telemetry.hpp"

namespace ecnprobe::measure {

/// One worker's isolated execution context: a private world clone with its
/// own Simulator, vantages, and server pool. Implemented by the scenario
/// layer (scenario::World); measure/ stays ignorant of how worlds are
/// built.
class CampaignShard {
public:
  virtual ~CampaignShard() = default;

  virtual netsim::Simulator& sim() = 0;
  virtual std::map<std::string, Vantage*> vantages() = 0;
  virtual std::vector<wire::Ipv4Address> servers() = 0;

  /// Puts this shard's world into the exact state trace `index` starts
  /// from: availability/churn for (batch, index) plus the per-trace epoch
  /// reset (RNG streams, middlebox state).
  virtual void begin_trace(const std::string& vantage, int batch, int index) = 0;

  /// Observability delta for the trace that just finished: everything the
  /// shard's metrics registry and drop ledger accumulated since the last
  /// begin_trace(). Called after sim().run() returned, i.e. from a fully
  /// quiescent world, so straggler events are included. The running
  /// vantage's capture still holds the trace's packets here, in a buffer
  /// the executor lent it at trace start and takes back once both collect
  /// calls returned. Shards that don't track metrics return an empty
  /// snapshot.
  virtual obs::ObsSnapshot collect_trace_metrics() { return {}; }

  /// Flight-recorder events for the trace that just finished -- everything
  /// the shard's recorder captured since the last begin_trace(). Same
  /// quiescence contract as collect_trace_metrics(). Shards without a
  /// recorder return an empty vector.
  virtual std::vector<obs::FlightEvent> collect_trace_events() { return {}; }

  /// A trace on this shard threw: attribute the loss (drop ledger) before
  /// the executor collects the partial delta. Default: no attribution.
  virtual void quarantine_trace(const std::string& vantage, int batch, int index) {
    (void)vantage;
    (void)batch;
    (void)index;
  }

  /// Circuit-breaker group resolver bound to THIS shard's world (each
  /// worker's clone owns a private ip2as map, so the resolver must not
  /// outlive or cross shards). Null = use whatever ProbeOptions carries.
  virtual sched::GroupResolver breaker_group() { return {}; }
};

class ParallelCampaign {
public:
  /// Builds worker `worker_index`'s shard. Invoked on the worker thread.
  using ShardFactory = std::function<std::unique_ptr<CampaignShard>(int worker_index)>;

  struct Options {
    int workers = 1;
    ProbeOptions probe;
    /// Simulated crash: stop claiming new live traces once this many have
    /// been claimed across all workers (journal replays don't count).
    /// 0 = run the whole plan.
    int halt_after_traces = 0;
    /// Sketched-telemetry config for the campaign-level aggregate. Must be
    /// pre-resolved (seed filled in) identically to the config the shards'
    /// worlds arm, or the fold would hash into different sketch cells --
    /// scenario::campaign_options does this from WorldParams.
    obs::TelemetryConfig telemetry;
  };

  ParallelCampaign(ShardFactory factory, Options options);

  /// Cooperative cancel, callable from any thread (a watchdog, a signal
  /// handler's drain path, a daemon shutdown): workers stop claiming new
  /// traces and run() returns once in-flight traces finish. Already-
  /// journaled work is untouched, so a later resume completes the plan
  /// byte-identically. Sticky for the lifetime of this executor.
  void request_halt() { halt_requested_.store(true, std::memory_order_relaxed); }
  bool halt_requested() const {
    return halt_requested_.load(std::memory_order_relaxed);
  }

  /// Attaches a write-ahead journal. Traces already in it are replayed
  /// (result + metrics delta taken from disk, counted as completed, never
  /// re-run); every live trace is appended and flushed before its result
  /// is considered complete. The journal must outlive run().
  void set_journal(CampaignJournal* journal) { journal_ = journal; }

  /// Runs the plan across the worker pool; blocks until done. Hands each
  /// delivered trace -- run live or replayed from the journal -- to `sink`
  /// exactly once, in plan order; a trace that threw is never delivered.
  /// The sink is the only way a trace leaves the executor. It runs under
  /// the merge mutex (see the thread affinity contract above), so a slow
  /// sink holds up every worker's commit.
  void run(const CampaignPlan& plan, const TraceSink& sink);
  /// run() with the sink that appends: the delivered traces in plan order.
  std::vector<Trace> run(const CampaignPlan& plan);

  /// Traces that threw during the last run(), in campaign-index order.
  const std::vector<TraceFailure>& failures() const { return failures_; }

  /// Live progress: traces finished so far (readable from any thread).
  int traces_completed() const { return completed_.load(std::memory_order_relaxed); }

  /// Point-in-time progress snapshot, safe to call from any thread while
  /// run() is executing on another.
  struct Progress {
    int total = 0;      ///< traces in the plan
    int completed = 0;  ///< traces that produced a result
    int failed = 0;     ///< traces that threw
    int in_flight = 0;  ///< traces currently executing on a worker
    std::map<std::string, int> completed_by_vantage;

    /// The JSON body of the live plane's GET /progress.
    std::string to_json() const;
  };
  Progress progress() const;

  /// Campaign observability merged from the per-trace shard deltas in plan
  /// order -- byte-identical regardless of worker count. Valid after run()
  /// returns.
  const obs::ObsSnapshot& metrics() const { return merged_metrics_; }

  /// Point-in-time copy of the merged campaign snapshot, safe to call
  /// from any thread while run() executes (the live /metrics endpoint's
  /// data source). Mid-run it holds the contiguous plan-order prefix of
  /// folded traces, so every counter is <= its final value and the
  /// mid-run scrape reconciles with the final --metrics-out export.
  obs::ObsSnapshot metrics_snapshot() const {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    return merged_metrics_;
  }

  /// Flight-recorder events merged from the per-trace shard slices in plan
  /// order -- byte-identical regardless of worker count. Empty unless the
  /// shards armed their recorders; replayed (journaled) traces contribute
  /// no events. Valid after run() returns.
  const std::vector<obs::FlightEvent>& flight_events() const { return flight_events_; }

  /// Campaign telemetry aggregate folded from the per-trace deltas in plan
  /// order -- byte-identical regardless of worker count. Inactive unless
  /// Options::telemetry is sketched. Valid after run() returns.
  const obs::TelemetryAggregate& telemetry() const { return telemetry_; }

  /// Executor-runtime metrics (worker utilization, in-flight gauges).
  /// Timing-dependent, hence deliberately separate from the deterministic
  /// campaign metrics().
  obs::MetricsSnapshot runtime_metrics() const { return runtime_.snapshot(); }

private:
  struct Worker;

  /// One finished trace, parked until every lower-index trace has been
  /// folded: its result (none when it threw), its observability delta and
  /// its flight events. Live claims are strictly increasing, so the window
  /// is at most ~workers deep beyond the journal replays, and campaign
  /// telemetry stays O(sketch) rather than O(traces x labels).
  struct PendingTrace {
    std::optional<Trace> trace;
    obs::ObsSnapshot obs;
    std::vector<obs::FlightEvent> events;
  };

  void run_one(Worker& worker, const std::vector<PlannedTrace>& schedule, int index,
               const TraceSink& sink);

  /// Parks trace `index`, then folds the contiguous ready prefix in plan
  /// order. Thread-safe; committing an index twice is a std::logic_error.
  void commit(int index, PendingTrace finished, const TraceSink& sink);
  /// Folds one trace: its delta into the campaign snapshot, telemetry and
  /// flight log, its result (if any) into `sink`. Caller holds merge_mutex_.
  void fold(PendingTrace& finished, const TraceSink& sink);
  /// Folds any still-parked traces (holes from halt_after_traces leave the
  /// prefix short) in index order. Call only after the pool is idle.
  void flush_pending(const TraceSink& sink);

  ShardFactory factory_;
  Options options_;
  CampaignJournal* journal_ = nullptr;
  std::mutex journal_mutex_;
  std::mutex failures_mutex_;
  std::vector<TraceFailure> failures_;
  std::atomic<int> completed_{0};
  std::atomic<int> total_{0};
  std::atomic<bool> halt_requested_{false};
  mutable std::mutex merge_mutex_;
  std::map<int, PendingTrace> pending_;
  int next_merge_ = 0;
  std::size_t folded_ = 0;     ///< deltas folded by the last run()
  std::size_t delivered_ = 0;  ///< of which traces handed to the sink
  obs::ObsSnapshot merged_metrics_;
  obs::TelemetryAggregate telemetry_;
  std::vector<obs::FlightEvent> flight_events_;
  obs::MetricsRegistry runtime_;
};

}  // namespace ecnprobe::measure
