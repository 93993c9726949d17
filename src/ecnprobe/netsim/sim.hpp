// Discrete-event simulation engine. A single-threaded event queue with
// deterministic FIFO tie-breaking: the ordering key is explicitly
// (timestamp, insertion sequence number), so two events scheduled for the
// same nanosecond fire in scheduling order and a campaign replays
// identically for a given seed. The queue is a calendar queue (see
// event_queue.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ecnprobe/netsim/event_queue.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/util/function.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::netsim {

using util::SimDuration;
using util::SimTime;

/// Handle for cancelling a scheduled event (protocol timers).
class EventHandle {
public:
  EventHandle() = default;

  /// Cancels the event if it has not fired; safe to call repeatedly.
  void cancel();
  bool pending() const;

private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> cancelled) : cancelled_(std::move(cancelled)) {}
  std::shared_ptr<bool> cancelled_;
};

class Simulator {
public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at `now() + delay` (delays clamp to zero).
  template <typename F>
  EventHandle schedule(SimDuration delay, F&& fn) {
    if (delay < SimDuration{}) delay = SimDuration{};
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    assert_owner();
    if (when < now_) when = now_;
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(SimEvent{when, next_seq_++, util::UniqueFunction(std::forward<F>(fn)),
                         cancelled, now_});
    ++live_;
    if (live_ > live_high_water_) live_high_water_ = live_;
    return EventHandle{std::move(cancelled)};
  }

  /// Fire-and-forget scheduling for the packet-delivery hot path: no handle,
  /// so no per-event cancellation control block is allocated. Ordering is
  /// identical to schedule() -- posts draw from the same sequence counter.
  template <typename F>
  void post(SimDuration delay, F&& fn) {
    assert_owner();
    if (delay < SimDuration{}) delay = SimDuration{};
    queue_.push(SimEvent{now_ + delay, next_seq_++, util::UniqueFunction(std::forward<F>(fn)),
                         nullptr, now_});
    ++live_;
    if (live_ > live_high_water_) live_high_water_ = live_;
  }

  /// Runs `fn` the next time the event queue drains (all live events fired,
  /// no time attached). run() processes idle callbacks one at a time, so a
  /// callback that schedules new events keeps the simulation going and the
  /// next idle callback fires only once those events drain too. This is the
  /// quiescence barrier between campaign traces: straggler packets and
  /// timers from one trace fully settle before the next trace starts.
  void schedule_when_idle(std::function<void()> fn);

  /// Runs events until the queue empties or `limit` events have fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with a timestamp <= `until`. Time advances to `until` even
  /// if the queue drains early. Note the historical edge this preserves: the
  /// timestamp check looks at the earliest *queued* entry including
  /// already-cancelled ones, and firing then skips past cancelled entries --
  /// so a cancelled event at <= `until` can pull in one live event beyond
  /// `until`.
  std::size_t run_until(SimTime until);

  /// Discards every pending event and idle callback without firing them.
  /// Recovery hatch after an exception unwound mid-trace: queued callbacks
  /// may reference destroyed objects and must never fire.
  void clear_pending();

  std::size_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return live_; }
  /// Deepest the live-event queue has ever been: the self-profiler's
  /// scheduler pressure gauge. One branch on the schedule path.
  std::size_t events_high_water() const { return live_high_water_; }
  std::size_t idle_callbacks_pending() const { return idle_.size(); }

  /// Event-loop instrumentation: a fired-events counter and a histogram of
  /// the *simulated* delay between scheduling and firing (both measured in
  /// sim time, so they are deterministic). Either may be null.
  void set_metrics(obs::Counter* events_fired, obs::Histogram* event_lag_ms) {
    events_counter_ = events_fired;
    lag_histogram_ = event_lag_ms;
  }

private:
  bool fire_next();
  void assert_owner();

  CalendarQueue queue_;
  std::deque<std::function<void()>> idle_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t live_ = 0;  ///< queued events not yet cancelled
  std::size_t live_high_water_ = 0;
  obs::Counter* events_counter_ = nullptr;
  obs::Histogram* lag_histogram_ = nullptr;

  // A Simulator is single-threaded by design; with campaign shards running
  // one Simulator per worker, this catches accidental cross-thread sharing.
  // The owner binds on first schedule/run and never rebinds.
  std::thread::id owner_;
};

}  // namespace ecnprobe::netsim
