// The event queue behind netsim::Simulator: a calendar queue, a bucketed
// integer-nanosecond wheel with an overflow ladder. push/pop are O(1)
// amortized: near-future events land in a circular array of time buckets;
// events beyond the wheel's horizon wait in a binary-heap ladder and are
// re-bucketed when the wheel drains down to them. Buckets retain their
// capacity across clear(), so per-trace steady state performs no heap
// allocation.
//
// Events pop in ascending (when, seq) order, where `seq` is the global
// insertion sequence number. The FIFO tie-break is explicit: `seq` is part
// of the ordering key, not an accident of container behaviour, so two
// events scheduled for the same nanosecond fire in scheduling order by
// construction, and a campaign replays identically for a given seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ecnprobe/util/function.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::netsim {

using util::SimTime;

/// One scheduled event. `cancelled` is shared with the EventHandle given to
/// the scheduler's caller; it is null for fire-and-forget posts, which then
/// skip the per-event control-block allocation entirely.
struct SimEvent {
  SimTime when;
  std::uint64_t seq = 0;
  util::UniqueFunction fn;
  std::shared_ptr<bool> cancelled;
  SimTime scheduled_at;

  /// The total order the queue pops in.
  bool before(const SimEvent& other) const {
    if (when != other.when) return when < other.when;
    return seq < other.seq;
  }
};

/// Calendar queue: a circular array of `bucket_count` buckets, each
/// `bucket_width` nanoseconds wide, covering the wheel's horizon of
/// bucket_count x bucket_width from the cursor; plus a heap-ordered
/// overflow ladder for events beyond the horizon.
///
/// Invariants:
///  * every wheel event E satisfies cursor_time <= bucket-of(E) window,
///    i.e. wheel buckets ahead of the cursor hold strictly later windows
///    (no wrap-around ambiguity: far events live in the ladder instead);
///  * events pushed at-or-before the cursor's window (the simulator clamps
///    to `now`, but a stale cursor can be ahead of `now` after run_until
///    drained the wheel) drop into the cursor bucket itself -- pop always
///    min-scans that bucket first, so ordering stays exact;
///  * every ladder event is at or beyond the wheel horizon;
///  * bit i of the occupancy bitmap is set iff bucket i holds events: every
///    path that puts an event in a bucket (push, the ladder drain, the
///    grow_wheel rebuild) sets it, and pop clears it when it empties the
///    bucket; clear() zeroes the bitmap with the buckets.
///
/// Pop jumps the cursor to the first occupied bucket at/after it -- at most
/// one bitmap word tested per 64 buckets, never a walk over empty ones --
/// and min-scans that bucket by (when, seq). When the wheel drains, the wheel re-anchors at
/// the ladder's minimum and re-buckets every ladder event inside the new
/// horizon.
class CalendarQueue {
public:
  /// `bucket_count` must be a power of two (bucket indices wrap with a mask).
  explicit CalendarQueue(std::int64_t bucket_width_ns = kDefaultBucketWidthNs,
                         std::size_t bucket_count = kDefaultBucketCount);

  void push(SimEvent&& ev);
  SimEvent pop();
  /// Key of the earliest queued event. Undefined when empty. May advance
  /// the cursor over empty buckets (a pure optimization; see invariants).
  SimTime min_when();
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Empties the queue but keeps bucket capacity (steady-state reuse).
  void clear();

  static constexpr std::int64_t kDefaultBucketWidthNs = 65'536;  // ~66us
  static constexpr std::size_t kDefaultBucketCount = 1024;
  /// Wheel doubles when occupancy exceeds this many events per bucket. The
  /// resize also re-fits the bucket width to the live span (see grow_wheel)
  /// so the per-pop min-scan stays O(kGrowOccupancy) whether pending events
  /// cluster in one millisecond or sprawl across simulated minutes.
  static constexpr std::size_t kGrowOccupancy = 4;
  /// Bucket width never adapts below this (same-instant bursts share one
  /// bucket no matter how fine the wheel: their scan cost is inherent).
  static constexpr std::int64_t kMinBucketWidthNs = 64;

  // -- introspection for tests/benches --------------------------------------
  std::size_t ladder_size() const { return ladder_.size(); }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::int64_t bucket_width_ns() const { return width_ns_; }
  std::uint64_t resizes() const { return resizes_; }
  /// Occupancy-bitmap words tested while finding the next bucket, over the
  /// queue's life: a deterministic count of the search cost, about one per
  /// pop. Walking empty buckets one by one instead would show up here.
  std::uint64_t bitmap_words_tested() const { return words_tested_; }

private:
  std::int64_t horizon_ns() const {
    return base_ns_ + static_cast<std::int64_t>(buckets_.size()) * width_ns_;
  }
  std::size_t bucket_index_for(std::int64_t when_ns) const;
  /// Cursor bucket of a wheel re-anchored at `ns`.
  std::size_t slot_of(std::int64_t ns) const {
    return static_cast<std::size_t>(ns / width_ns_) & mask_;
  }
  /// Files `ev` in its wheel bucket and marks the bucket occupied.
  void to_wheel(SimEvent&& ev);
  /// First occupied bucket at or after `from`, wrapping; the wheel must
  /// hold at least one event.
  std::size_t next_occupied(std::size_t from);
  /// Positions the cursor on the bucket holding the global minimum:
  /// re-anchors from the ladder if the wheel drained, jumps over empty
  /// buckets, and pulls ladder events the grown horizon now covers.
  void prepare_front();
  void drain_ladder_within_horizon();
  void reseed_from_ladder();
  void grow_wheel();
  void reset_bitmap();

  struct LadderLater {
    bool operator()(const SimEvent& a, const SimEvent& b) const { return b.before(a); }
  };

  std::int64_t width_ns_;
  std::vector<std::vector<SimEvent>> buckets_;
  std::size_t mask_;           ///< buckets_.size() - 1 (a power of two minus one)
  std::vector<std::uint64_t> occupied_;  ///< one bit per bucket, set iff non-empty
  std::size_t cursor_ = 0;     ///< bucket whose window starts at base_ns_
  std::int64_t base_ns_ = 0;   ///< inclusive start of the cursor bucket's window
  std::size_t wheel_count_ = 0;
  std::vector<SimEvent> ladder_;  ///< std::*_heap ordered by LadderLater
  std::size_t size_ = 0;
  std::uint64_t resizes_ = 0;
  std::uint64_t words_tested_ = 0;
};

}  // namespace ecnprobe::netsim
