#include "ecnprobe/measure/parallel_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/obs/profiler.hpp"
#include "ecnprobe/util/arena.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/thread_pool.hpp"

namespace ecnprobe::measure {

struct ParallelCampaign::Worker {
  std::unique_ptr<CampaignShard> shard;
  std::map<std::string, Vantage*> vantages;
  std::vector<wire::Ipv4Address> servers;
  obs::Counter* busy_micros = nullptr;
  obs::Counter* traces = nullptr;
};

ParallelCampaign::ParallelCampaign(ShardFactory factory, Options options)
    : factory_(std::move(factory)), options_(options) {
  if (!factory_) throw std::invalid_argument("ParallelCampaign: null shard factory");
  if (options_.workers < 1) options_.workers = 1;
}

void ParallelCampaign::commit_delta(int index, PendingDelta delta) {
  std::lock_guard<std::mutex> lock(merge_mutex_);
  // Every trace's delta enters the totals exactly once -- as a live
  // result, a journal replay, or a quarantine. A second commit would
  // either be dropped by emplace or, below next_merge_, folded twice.
  if (index < next_merge_ || !pending_.emplace(index, std::move(delta)).second) {
    throw std::logic_error("ParallelCampaign: trace " + std::to_string(index) +
                           " committed twice");
  }
  // Fold the contiguous ready prefix and release it. Claims are strictly
  // increasing, so at most ~workers deltas wait here at any moment; the
  // campaign totals themselves live in fixed-size structures (metric sums,
  // sketches), never in per-trace retained snapshots.
  for (auto it = pending_.find(next_merge_); it != pending_.end();
       it = pending_.find(next_merge_)) {
    fold(it->second);
    pending_.erase(it);
    ++next_merge_;
  }
}

void ParallelCampaign::fold(PendingDelta& delta) {
  merged_metrics_.metrics.merge(delta.obs.metrics);
  merged_metrics_.ledger.merge(delta.obs.ledger);
  merged_metrics_.timeseries.merge(delta.obs.timeseries);
  telemetry_.fold(delta.obs.telemetry);
  flight_events_.insert(flight_events_.end(), std::make_move_iterator(delta.events.begin()),
                        std::make_move_iterator(delta.events.end()));
  ++folded_;
}

void ParallelCampaign::flush_pending() {
  // Holes in the index space (halt_after_traces abandons claimed indices,
  // journal prefill can start above zero) stall the prefix walk; once the
  // pool is idle no more commits arrive, so fold the stragglers in index
  // order -- std::map iteration is already ascending.
  std::lock_guard<std::mutex> lock(merge_mutex_);
  for (auto& [index, ready] : pending_) fold(ready);
  pending_.clear();
}

void ParallelCampaign::run_one(Worker& worker, const std::vector<PlannedTrace>& schedule,
                               int index, std::vector<std::unique_ptr<Trace>>& slots) {
  if (slots[static_cast<std::size_t>(index)]) {
    // A filled slot means this trace was already replayed from the journal;
    // running it again would merge its metrics delta twice.
    throw std::logic_error(
        "ParallelCampaign::run_one: trace " + std::to_string(index) +
        " already has a result (journal replay raced a live claim?)");
  }
  const auto& planned = schedule[static_cast<std::size_t>(index)];
  auto* in_flight =
      runtime_.gauge("campaign_in_flight", {{"vantage", planned.vantage}},
                     "traces currently executing, per vantage");
  in_flight->add(1);
  const auto vit = worker.vantages.find(planned.vantage);
  Vantage* vantage = vit == worker.vantages.end() ? nullptr : vit->second;
  try {
    {
      obs::Profiler::Scope plan_scope("plan");
      worker.shard->begin_trace(planned.vantage, planned.batch, index);
    }
    if (observer_) {
      std::lock_guard<std::mutex> lock(observer_mutex_);
      observer_(planned.vantage, planned.batch, index);
    }
    if (vantage == nullptr) {
      throw std::invalid_argument("ParallelCampaign: unknown vantage " + planned.vantage);
    }
    vantage->capture().clear();
    ProbeOptions probe = options_.probe;
    if (probe.sched.breaker.enabled) {
      // Group resolution must consult this worker's own world clone; a
      // resolver captured from the coordinating world would race it.
      if (auto groups = worker.shard->breaker_group()) probe.breaker_group = std::move(groups);
    }
    TraceRunner runner(*vantage, worker.servers, probe);
    std::unique_ptr<Trace> result;
    {
      obs::Profiler::Scope probe_scope("probe");
      runner.run(planned.batch, index,
                 [&result](Trace trace) { result = std::make_unique<Trace>(std::move(trace)); });
      worker.shard->sim().run();
    }
    auto& profiler = obs::Profiler::process();
    if (profiler.enabled()) {
      profiler.gauge_max("sim_queue_depth_high_water",
                         static_cast<std::int64_t>(
                             worker.shard->sim().events_high_water()));
      const auto& pool = util::BufferPool::this_thread();
      profiler.gauge_max("buffer_pool_outstanding_high_water",
                         static_cast<std::int64_t>(pool.outstanding_high_water()));
      profiler.gauge_max("buffer_pool_free_high_water",
                         static_cast<std::int64_t>(pool.free_count()));
    }
    if (!result) throw std::runtime_error("ParallelCampaign: trace stalled");
    // The delta is collected after full quiescence, so straggler events
    // (TIME_WAIT timers, late responses) land in this trace's delta, never
    // in whichever trace runs next on this worker.
    PendingDelta delta;
    delta.obs = worker.shard->collect_trace_metrics();
    delta.events = worker.shard->collect_trace_events();
    // The capture holds this trace's packets only: shards may read it while
    // collecting, and releasing it here bounds a worker's memory to the
    // trace it runs instead of every vantage's latest trace.
    vantage->capture().clear();
    if (journal_ != nullptr) {
      // Write-ahead: the trace is durable before it counts as complete.
      obs::Profiler::Scope journal_scope("journal");
      std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_->append(*result, delta.obs);
      auto& stream = obs::EventStream::process();
      if (stream.enabled()) {
        stream.emit("checkpoint", "trace=" + std::to_string(index) +
                                      " vantage=" + planned.vantage);
      }
    }
    slots[static_cast<std::size_t>(index)] = std::move(result);
    {
      obs::Profiler::Scope merge_scope("merge");
      commit_delta(index, std::move(delta));
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    runtime_.counter("campaign_completed_total", {{"vantage", planned.vantage}},
                     "traces finished, per vantage")->inc();
  } catch (const std::exception& e) {
    // Abandoned events may reference objects the unwinding destroyed (the
    // TraceRunner above); they must never fire. The epoch reset at the next
    // begin_trace() restores the world's behavioural state.
    worker.shard->sim().clear_pending();
    // Quarantine: the shard attributes the loss in its drop ledger, and the
    // partial delta (including that attribution) still merges in plan order
    // -- so the failed trace shows up in the report, not as a silent hole.
    worker.shard->quarantine_trace(planned.vantage, planned.batch, index);
    auto& stream = obs::EventStream::process();
    if (stream.enabled()) {
      stream.emit("quarantine", "trace=" + std::to_string(index) +
                                    " vantage=" + planned.vantage +
                                    " error=" + e.what());
    }
    PendingDelta delta;
    delta.obs = worker.shard->collect_trace_metrics();
    delta.events = worker.shard->collect_trace_events();
    if (vantage != nullptr) vantage->capture().clear();
    commit_delta(index, std::move(delta));
    runtime_.counter("campaign_failed_total", {{"vantage", planned.vantage}},
                     "traces that threw, per vantage")->inc();
    std::lock_guard<std::mutex> lock(failures_mutex_);
    failures_.push_back({index, planned.vantage, planned.batch, e.what()});
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
  }

  std::vector<std::unique_ptr<Trace>> slots(schedule.size());
  if (journal_ != nullptr) {
    // Checkpoint replay: journaled traces prefill their slots and count as
    // completed; the claim loop below skips them. Their deltas enter the
    // same streaming merger as live traces, so fold order stays plan order.
    int prefilled = 0;
    for (const auto& [index, entry] : journal_->entries()) {
      if (index < 0 || static_cast<std::size_t>(index) >= schedule.size()) continue;
      slots[static_cast<std::size_t>(index)] = std::make_unique<Trace>(entry.trace);
      commit_delta(index, PendingDelta{entry.delta, {}});
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
          if (slots[index]) continue;  // replayed from the journal
          if (options_.halt_after_traces > 0 &&
              live_claimed.fetch_add(1, std::memory_order_relaxed) >=
                  options_.halt_after_traces) {
            // Simulated crash: this worker stops claiming. Which indices got
            // journaled depends on scheduling, but a --resume run completes
            // the rest, and the final merged output is index-keyed -- so it
            // is byte-identical to an uninterrupted run regardless.
            break;
          }
          const auto started = std::chrono::steady_clock::now();
          run_one(worker, schedule, static_cast<int>(index), slots);
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

  // Deltas were folded in plan order by the streaming merger as traces
  // finished (commutative integer sums + order-pinned sketch folds), so
  // the totals are byte-identical at any worker count; only halt-induced
  // holes remain parked.
  flush_pending();

  // Merge results back into plan order; failed traces leave no hole and no
  // duplicate -- their slot is simply empty.
  std::vector<Trace> merged;
  merged.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot) merged.push_back(std::move(*slot));
  }
  // Merge accounting: one folded delta per result (live or replayed) and
  // per quarantined trace; a worker that never built its shard has none.
  const auto quarantined = static_cast<std::size_t>(
      std::count_if(failures_.begin(), failures_.end(),
                    [](const TraceFailure& failure) { return failure.index >= 0; }));
  if (folded_ != merged.size() + quarantined) {
    throw std::logic_error("ParallelCampaign: obs merge accounting broken: " +
                           std::to_string(folded_) + " deltas folded for " +
                           std::to_string(merged.size()) + " results and " +
                           std::to_string(quarantined) + " quarantined traces");
  }
  return merged;
}

}  // namespace ecnprobe::measure
