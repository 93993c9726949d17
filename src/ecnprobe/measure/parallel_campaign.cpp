#include "ecnprobe/measure/parallel_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/obs/profiler.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/thread_pool.hpp"

namespace ecnprobe::measure {

struct ParallelCampaign::Worker {
  std::unique_ptr<CampaignShard> shard;
  std::map<std::string, Vantage*> vantages;
  std::vector<wire::Ipv4Address> servers;
  obs::Counter* busy_micros = nullptr;
  obs::Counter* traces = nullptr;
  /// The one capture buffer this worker lends to each trace's vantage:
  /// adopted at trace start, taken back at commit or quarantine, so its
  /// capacity carries from trace to trace instead of regrowing.
  std::vector<netsim::CapturedPacket> capture;
};

ParallelCampaign::ParallelCampaign(ShardFactory factory, Options options)
    : factory_(std::move(factory)), options_(options) {
  if (!factory_) throw std::invalid_argument("ParallelCampaign: null shard factory");
  if (options_.workers < 1) options_.workers = 1;
}

void ParallelCampaign::commit(int index, PendingTrace finished, const TraceSink& sink) {
  std::lock_guard<std::mutex> lock(merge_mutex_);
  // Every trace enters the totals exactly once -- as a live result, a
  // journal replay, or a quarantine. A second commit would either be
  // dropped by emplace or, below next_merge_, folded twice.
  if (index < next_merge_ || !pending_.emplace(index, std::move(finished)).second) {
    throw std::logic_error("ParallelCampaign: trace " + std::to_string(index) +
                           " committed twice");
  }
  // Fold the contiguous ready prefix and release it. Live claims are
  // strictly increasing, so at most ~workers traces wait here at any
  // moment; the campaign totals themselves live in fixed-size structures
  // (metric sums, sketches), never in per-trace retained snapshots. The
  // trace leaves the window before it is folded, so a sink that throws
  // cannot have it folded again.
  for (auto it = pending_.find(next_merge_); it != pending_.end();
       it = pending_.find(next_merge_)) {
    auto ready = pending_.extract(it);
    ++next_merge_;
    fold(ready.mapped(), sink);
  }
}

void ParallelCampaign::fold(PendingTrace& finished, const TraceSink& sink) {
  merged_metrics_.metrics.merge(finished.obs.metrics);
  merged_metrics_.ledger.merge(finished.obs.ledger);
  merged_metrics_.timeseries.merge(finished.obs.timeseries);
  telemetry_.fold(finished.obs.telemetry);
  flight_events_.insert(flight_events_.end(),
                        std::make_move_iterator(finished.events.begin()),
                        std::make_move_iterator(finished.events.end()));
  ++folded_;
  if (finished.trace) {
    ++delivered_;
    sink(std::move(*finished.trace));
  }
}

void ParallelCampaign::flush_pending(const TraceSink& sink) {
  // Holes in the index space (halt_after_traces abandons claimed indices,
  // journal replays can start above zero) stall the prefix walk; once the
  // pool is idle no more commits arrive, so fold the stragglers in index
  // order -- std::map iteration is already ascending.
  std::lock_guard<std::mutex> lock(merge_mutex_);
  while (!pending_.empty()) {
    auto ready = pending_.extract(pending_.begin());
    fold(ready.mapped(), sink);
  }
}

void ParallelCampaign::run_one(Worker& worker, const std::vector<PlannedTrace>& schedule,
                               int index, const TraceSink& sink) {
  const auto& planned = schedule[static_cast<std::size_t>(index)];
  auto* in_flight =
      runtime_.gauge("campaign_in_flight", {{"vantage", planned.vantage}},
                     "traces currently executing, per vantage");
  in_flight->add(1);
  const auto vit = worker.vantages.find(planned.vantage);
  Vantage* vantage = vit == worker.vantages.end() ? nullptr : vit->second;
  bool lent = false;  // the vantage holds worker.capture
  const auto take_back_capture = [&] {
    if (lent) worker.capture = vantage->capture().release();
    lent = false;
  };
  PendingTrace finished;
  std::optional<std::string> error;  // set when the trace threw
  try {
    {
      obs::Profiler::Scope plan_scope("plan");
      worker.shard->begin_trace(planned.vantage, planned.batch, index);
    }
    if (vantage == nullptr) {
      throw std::invalid_argument("ParallelCampaign: unknown vantage " + planned.vantage);
    }
    vantage->capture().adopt(std::move(worker.capture));
    lent = true;
    ProbeOptions probe = options_.probe;
    if (probe.sched.breaker.enabled) {
      // Group resolution must consult this worker's own world clone; a
      // resolver captured from the coordinating world would race it.
      if (auto groups = worker.shard->breaker_group()) probe.breaker_group = std::move(groups);
    }
    TraceRunner runner(*vantage, worker.servers, probe);
    std::optional<Trace> result;
    {
      obs::Profiler::Scope probe_scope("probe");
      runner.run(planned.batch, index, [&result](Trace trace) { result = std::move(trace); });
      worker.shard->sim().run();
    }
    auto& profiler = obs::Profiler::process();
    if (profiler.enabled()) {
      profiler.gauge_max("sim_queue_depth_high_water",
                         static_cast<std::int64_t>(
                             worker.shard->sim().events_high_water()));
    }
    if (!result) throw std::runtime_error("ParallelCampaign: trace stalled");
    // The delta is collected after full quiescence, so straggler events
    // (TIME_WAIT timers, late responses) land in this trace's delta, never
    // in whichever trace runs next on this worker.
    finished.obs = worker.shard->collect_trace_metrics();
    finished.events = worker.shard->collect_trace_events();
    // The capture holds this trace's packets only: shards may read it while
    // collecting, and taking the buffer back here bounds a worker's memory
    // to the trace it runs instead of every vantage's latest trace.
    take_back_capture();
    if (journal_ != nullptr) {
      // Write-ahead: the trace is durable before it counts as complete.
      obs::Profiler::Scope journal_scope("journal");
      std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_->append(*result, finished.obs);
      auto& stream = obs::EventStream::process();
      if (stream.enabled()) {
        stream.emit("checkpoint", "trace=" + std::to_string(index) +
                                      " vantage=" + planned.vantage);
      }
    }
    finished.trace = std::move(result);
  } catch (const std::exception& e) {
    // Abandoned events may reference objects the unwinding destroyed (the
    // TraceRunner above); they must never fire. The epoch reset at the next
    // begin_trace() restores the world's behavioural state.
    worker.shard->sim().clear_pending();
    // Quarantine: the shard attributes the loss in its drop ledger, and the
    // partial delta (including that attribution) still merges in plan order
    // -- so the failed trace shows up in the report, not as a silent hole.
    worker.shard->quarantine_trace(planned.vantage, planned.batch, index);
    error = e.what();
    auto& stream = obs::EventStream::process();
    if (stream.enabled()) {
      stream.emit("quarantine", "trace=" + std::to_string(index) +
                                    " vantage=" + planned.vantage + " error=" + *error);
    }
    finished = PendingTrace{};
    finished.obs = worker.shard->collect_trace_metrics();
    finished.events = worker.shard->collect_trace_events();
    take_back_capture();
  }
  {
    obs::Profiler::Scope merge_scope("merge");
    commit(index, std::move(finished), sink);
  }
  if (!error) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    runtime_.counter("campaign_completed_total", {{"vantage", planned.vantage}},
                     "traces finished, per vantage")->inc();
  } else {
    runtime_.counter("campaign_failed_total", {{"vantage", planned.vantage}},
                     "traces that threw, per vantage")->inc();
    std::lock_guard<std::mutex> lock(failures_mutex_);
    failures_.push_back({index, planned.vantage, planned.batch, *error});
  }
  in_flight->add(-1);
}

ParallelCampaign::Progress ParallelCampaign::progress() const {
  Progress p;
  p.total = total_.load(std::memory_order_relaxed);
  p.completed = completed_.load(std::memory_order_relaxed);
  const auto snap = runtime_.snapshot();
  if (const auto fit = snap.families.find("campaign_failed_total");
      fit != snap.families.end()) {
    for (const auto& [labels, value] : fit->second.samples) {
      p.failed += static_cast<int>(value.counter);
    }
  }
  if (const auto git = snap.families.find("campaign_in_flight");
      git != snap.families.end()) {
    for (const auto& [labels, value] : git->second.samples) {
      p.in_flight += static_cast<int>(value.gauge);
    }
  }
  if (const auto cit = snap.families.find("campaign_completed_total");
      cit != snap.families.end()) {
    for (const auto& [labels, value] : cit->second.samples) {
      const auto vit = labels.find("vantage");
      if (vit != labels.end()) {
        p.completed_by_vantage[vit->second] += static_cast<int>(value.counter);
      }
    }
  }
  return p;
}

std::string ParallelCampaign::Progress::to_json() const {
  std::string json = "{\"total\":" + std::to_string(total) +
                     ",\"completed\":" + std::to_string(completed) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"in_flight\":" + std::to_string(in_flight) +
                     ",\"completed_by_vantage\":{";
  bool first = true;
  for (const auto& [vantage, count] : completed_by_vantage) {
    if (!first) json.push_back(',');
    first = false;
    json += "\"" + util::json_escape(vantage) + "\":" + std::to_string(count);
  }
  return json + "}}";
}

std::vector<Trace> ParallelCampaign::run(const CampaignPlan& plan) {
  std::vector<Trace> traces;
  run(plan, [&traces](Trace trace) { traces.push_back(std::move(trace)); });
  return traces;
}

void ParallelCampaign::run(const CampaignPlan& plan, const TraceSink& sink) {
  const auto schedule = expand_schedule(plan);
  failures_.clear();
  completed_.store(0, std::memory_order_relaxed);
  total_.store(static_cast<int>(schedule.size()), std::memory_order_relaxed);
  {
    // Under the lock: a live plane started before run() may already be
    // copying the totals through metrics_snapshot() on another thread.
    std::lock_guard<std::mutex> lock(merge_mutex_);
    merged_metrics_ = {};
    flight_events_.clear();
    telemetry_ = options_.telemetry.sketched()
                     ? obs::TelemetryAggregate(
                           options_.telemetry.resolved(options_.telemetry.seed))
                     : obs::TelemetryAggregate{};
    pending_.clear();
    next_merge_ = 0;
    folded_ = 0;
    delivered_ = 0;
  }

  // Checkpoint replay: journaled traces are committed here, before the
  // pool starts, and count as completed; they enter the same plan-order
  // window as live traces. The claim loop skips them through `replayed`,
  // never through the journal, whose map append() mutates under
  // journal_mutex_ while workers run.
  std::vector<bool> replayed(schedule.size());
  if (journal_ != nullptr) {
    int prefilled = 0;
    for (const auto& [index, entry] : journal_->entries()) {
      if (index < 0 || static_cast<std::size_t>(index) >= schedule.size()) continue;
      replayed[static_cast<std::size_t>(index)] = true;
      commit(index, PendingTrace{entry.trace, entry.delta, {}}, sink);
      ++prefilled;
    }
    completed_.store(prefilled, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<int> live_claimed{0};
  {
    util::ThreadPool pool(options_.workers);
    for (int w = 0; w < options_.workers; ++w) {
      pool.submit([&, w] {
        Worker worker;
        worker.busy_micros =
            runtime_.counter("worker_busy_micros_total", {{"worker", std::to_string(w)}},
                             "microseconds spent executing traces, per worker");
        worker.traces =
            runtime_.counter("worker_traces_total", {{"worker", std::to_string(w)}},
                             "traces claimed, per worker");
        try {
          worker.shard = factory_(w);
          worker.vantages = worker.shard->vantages();
          worker.servers = worker.shard->servers();
        } catch (const std::exception& e) {
          // A worker that cannot build its world contributes nothing; the
          // shared queue lets the surviving workers absorb its share.
          std::lock_guard<std::mutex> lock(failures_mutex_);
          failures_.push_back({-1, "<worker " + std::to_string(w) + ">", 0, e.what()});
          return;
        }
        for (;;) {
          if (halt_requested_.load(std::memory_order_relaxed)) {
            // External cancel (watchdog / drain): same contract as the
            // simulated crash below -- stop claiming, keep what was
            // journaled, let a resume run finish the plan.
            break;
          }
          const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
          if (index >= schedule.size()) break;
          if (replayed[index]) continue;
          if (options_.halt_after_traces > 0 &&
              live_claimed.fetch_add(1, std::memory_order_relaxed) >=
                  options_.halt_after_traces) {
            // Simulated crash: this worker stops claiming. Which indices got
            // journaled depends on scheduling, but a --resume run completes
            // the rest, and the sink still sees them in plan order -- so the
            // output is byte-identical to an uninterrupted run regardless.
            break;
          }
          const auto started = std::chrono::steady_clock::now();
          run_one(worker, schedule, static_cast<int>(index), sink);
          const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - started);
          worker.busy_micros->inc(static_cast<std::uint64_t>(elapsed.count()));
          worker.traces->inc();
        }
      });
    }
    pool.wait_idle();
  }

  std::sort(failures_.begin(), failures_.end(),
            [](const TraceFailure& a, const TraceFailure& b) { return a.index < b.index; });

  // Traces were folded in plan order as they finished (commutative integer
  // sums + order-pinned sketch folds), so the totals are byte-identical at
  // any worker count; only halt-induced holes remain parked.
  flush_pending(sink);

  // Merge accounting: one folded delta per delivered trace (live or
  // replayed) and per quarantined trace; a worker that never built its
  // shard has none.
  const auto quarantined = static_cast<std::size_t>(
      std::count_if(failures_.begin(), failures_.end(),
                    [](const TraceFailure& failure) { return failure.index >= 0; }));
  if (folded_ != delivered_ + quarantined) {
    throw std::logic_error("ParallelCampaign: obs merge accounting broken: " +
                           std::to_string(folded_) + " deltas folded for " +
                           std::to_string(delivered_) + " delivered and " +
                           std::to_string(quarantined) + " quarantined traces");
  }
}

}  // namespace ecnprobe::measure
