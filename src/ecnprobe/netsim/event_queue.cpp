#include "ecnprobe/netsim/event_queue.hpp"

#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace ecnprobe::netsim {

SchedulerKind scheduler_kind_from_env() {
  if (const char* env = std::getenv("ECNPROBE_SCHEDULER")) {
    if (std::strcmp(env, "heap") == 0) return SchedulerKind::LegacyHeap;
  }
  return SchedulerKind::Calendar;
}

// ---------------------------------------------------------------- LegacyHeap

void LegacyHeapQueue::push(SimEvent&& ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimEvent LegacyHeapQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  SimEvent out = std::move(heap_.back());
  heap_.pop_back();
  return out;
}

// ------------------------------------------------------------- CalendarQueue

CalendarQueue::CalendarQueue(std::int64_t bucket_width_ns, std::size_t bucket_count)
    : width_ns_(bucket_width_ns > 0 ? bucket_width_ns : kDefaultBucketWidthNs),
      buckets_(bucket_count > 0 ? bucket_count : kDefaultBucketCount),
      mask_(buckets_.size() - 1) {
  assert(std::has_single_bit(buckets_.size()));  // bucket indices wrap with a mask
  reset_bitmap();
}

void CalendarQueue::reset_bitmap() {
  occupied_.assign((buckets_.size() + 63) / 64, 0);
}

std::size_t CalendarQueue::bucket_index_for(std::int64_t when_ns) const {
  const std::int64_t delta = when_ns - base_ns_;
  if (delta < width_ns_) return cursor_;  // cursor window, or behind a stale cursor
  return (cursor_ + static_cast<std::size_t>(delta / width_ns_)) & mask_;
}

void CalendarQueue::to_wheel(SimEvent&& ev) {
  const std::size_t i = bucket_index_for(ev.when.count_nanos());
  buckets_[i].push_back(std::move(ev));
  occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
  ++wheel_count_;
}

std::size_t CalendarQueue::next_occupied(std::size_t from) {
  // The word holding `from` is tested twice at most: first from `from` up,
  // then whole after wrapping, which finds the buckets behind the cursor.
  const std::size_t last_word = occupied_.size() - 1;  // word count is a power of two
  std::size_t word = from / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  ++words_tested_;
  while (bits == 0) {
    word = (word + 1) & last_word;
    bits = occupied_[word];
    ++words_tested_;
  }
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void CalendarQueue::push(SimEvent&& ev) {
  const std::int64_t when_ns = ev.when.count_nanos();
  if (size_ == 0) {
    // Fully empty: re-anchor the wheel at this event so the horizon is
    // centred on live work instead of wherever the last trace ended.
    base_ns_ = when_ns - (when_ns % width_ns_);
    if (base_ns_ > when_ns) base_ns_ -= width_ns_;  // negative-time safety
    cursor_ = slot_of(when_ns);
  }
  ++size_;
  // Grow (and possibly re-fit the bucket width) before the horizon test:
  // a resize can shrink the horizon, which may push this event's window
  // from "wheel" to "ladder".
  if (when_ns < horizon_ns() && wheel_count_ + 1 > buckets_.size() * kGrowOccupancy) {
    grow_wheel();
  }
  if (when_ns >= horizon_ns()) {
    ladder_.push_back(std::move(ev));
    std::push_heap(ladder_.begin(), ladder_.end(), LadderLater{});
    return;
  }
  to_wheel(std::move(ev));
}

void CalendarQueue::prepare_front() {
  if (wheel_count_ == 0) {
    reseed_from_ladder();
    return;  // reseed leaves the cursor on the ladder-minimum's bucket
  }
  // All wheel events live within one horizon of the cursor, so the first
  // occupied bucket lies less than one rotation ahead; the cursor's window
  // start moves with it, one bucket width per bucket skipped.
  const std::size_t next = next_occupied(cursor_);
  base_ns_ += static_cast<std::int64_t>((next - cursor_) & mask_) * width_ns_;
  cursor_ = next;
  // Advancing the cursor grew the horizon; ladder events it now covers must
  // join the wheel or they would pop after later-but-bucketed events.
  drain_ladder_within_horizon();
}

void CalendarQueue::drain_ladder_within_horizon() {
  const std::int64_t horizon = horizon_ns();
  while (!ladder_.empty() && ladder_.front().when.count_nanos() < horizon) {
    std::pop_heap(ladder_.begin(), ladder_.end(), LadderLater{});
    SimEvent ev = std::move(ladder_.back());
    ladder_.pop_back();
    to_wheel(std::move(ev));
  }
}

void CalendarQueue::reseed_from_ladder() {
  // The wheel drained; re-anchor it at the ladder's minimum and pull every
  // ladder event inside the new horizon into buckets.
  const std::int64_t min_ns = ladder_.front().when.count_nanos();
  base_ns_ = min_ns - (min_ns % width_ns_);
  if (base_ns_ > min_ns) base_ns_ -= width_ns_;
  cursor_ = slot_of(min_ns);
  drain_ladder_within_horizon();
}

void CalendarQueue::grow_wheel() {
  // Double the wheel, re-fit the bucket width to the live span, and
  // re-bucket. Order is unaffected: pop selects by explicit (when, seq),
  // never by bucket position. Width adaptation is what keeps the per-pop
  // min-scan bounded: a fixed width degrades to O(n) scans whenever n
  // events cluster inside one bucket's window, no matter how many buckets
  // the wheel has. Re-fitting targets kGrowOccupancy events per bucket on
  // average for the *current* population, whatever its time scale.
  ++resizes_;
  std::vector<std::vector<SimEvent>> old = std::move(buckets_);
  const auto new_count = old.size() * 2;

  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ns = std::numeric_limits<std::int64_t>::min();
  for (const auto& bucket : old) {
    for (const auto& ev : bucket) {
      min_ns = std::min(min_ns, ev.when.count_nanos());
      max_ns = std::max(max_ns, ev.when.count_nanos());
    }
  }
  if (min_ns <= max_ns) {
    // Aim for the span to occupy ~3/4 of the new wheel: density lands near
    // kGrowOccupancy x 3/4 and there is headroom past max_ns before the
    // horizon, so steady pushes slightly beyond the tail stay on the wheel.
    const std::int64_t span = max_ns - min_ns + 1;
    width_ns_ = std::max(kMinBucketWidthNs,
                         span / static_cast<std::int64_t>(new_count * 3 / 4));
    base_ns_ = min_ns - (min_ns % width_ns_);
    if (base_ns_ > min_ns) base_ns_ -= width_ns_;  // negative-time safety
  }

  buckets_ = std::vector<std::vector<SimEvent>>(new_count);
  mask_ = new_count - 1;
  reset_bitmap();
  cursor_ = slot_of(base_ns_);
  wheel_count_ = 0;
  const std::int64_t horizon = horizon_ns();
  for (auto& bucket : old) {
    for (auto& ev : bucket) {
      // A narrower width can shrink the horizon below an event that used to
      // fit the wheel; such events spill to the ladder.
      if (ev.when.count_nanos() >= horizon) {
        ladder_.push_back(std::move(ev));
        std::push_heap(ladder_.begin(), ladder_.end(), LadderLater{});
      } else {
        to_wheel(std::move(ev));
      }
    }
    bucket.clear();
  }
  // A farther horizon may newly cover ladder events; pull them in.
  drain_ladder_within_horizon();
}

SimTime CalendarQueue::min_when() {
  assert(size_ > 0);
  prepare_front();
  const std::vector<SimEvent>& bucket = buckets_[cursor_];
  const SimEvent* best = &bucket.front();
  for (const SimEvent& ev : bucket) {
    if (ev.before(*best)) best = &ev;
  }
  return best->when;
}

SimEvent CalendarQueue::pop() {
  assert(size_ > 0);
  prepare_front();
  std::vector<SimEvent>& bucket = buckets_[cursor_];
  std::size_t best = 0;
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    if (bucket[i].before(bucket[best])) best = i;
  }
  SimEvent out = std::move(bucket[best]);
  if (best + 1 != bucket.size()) bucket[best] = std::move(bucket.back());
  bucket.pop_back();
  if (bucket.empty()) occupied_[cursor_ / 64] &= ~(std::uint64_t{1} << (cursor_ % 64));
  --wheel_count_;
  --size_;
  return out;
}

void CalendarQueue::clear() {
  for (auto& bucket : buckets_) bucket.clear();  // capacity retained
  reset_bitmap();
  ladder_.clear();
  wheel_count_ = 0;
  size_ = 0;
}

}  // namespace ecnprobe::netsim
