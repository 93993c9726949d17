// Property tests for the calendar-queue scheduler: under adversarial event
// distributions -- same-tick bursts, far-future ladder spills, wheel resize
// churn, interleaved push/pop -- the pop order must equal a reference
// ordered by (when, seq).
#include "ecnprobe/netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::netsim {
namespace {

using Key = std::pair<std::int64_t, std::uint64_t>;  // (when_ns, seq)

SimEvent make_event(std::int64_t when_ns, std::uint64_t seq) {
  SimEvent ev;
  ev.when = util::SimTime::from_nanos(when_ns);
  ev.seq = seq;
  return ev;
}

Key key_of(const SimEvent& ev) { return {ev.when.count_nanos(), ev.seq}; }

/// Pushes `whens` into the queue, pops everything, and checks the order
/// equals the reference sort of (when, seq).
template <typename Queue>
void expect_sorted_drain(Queue& queue, const std::vector<std::int64_t>& whens) {
  std::vector<Key> expected;
  expected.reserve(whens.size());
  for (std::size_t i = 0; i < whens.size(); ++i) {
    queue.push(make_event(whens[i], i));
    expected.emplace_back(whens[i], i);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<Key> actual;
  actual.reserve(whens.size());
  while (!queue.empty()) actual.push_back(key_of(queue.pop()));
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual, expected);
}

TEST(CalendarQueue, SameTickBurstPopsInInsertionOrder) {
  CalendarQueue queue;
  std::vector<std::int64_t> whens(5000, 42'000);  // one tick, 5000 events
  expect_sorted_drain(queue, whens);
}

TEST(CalendarQueue, SameTickBurstAcrossAFewTicks) {
  CalendarQueue queue;
  util::Rng rng(1);
  std::vector<std::int64_t> whens;
  for (int i = 0; i < 4000; ++i) {
    whens.push_back(static_cast<std::int64_t>(rng.next_below(4)) * 1'000'000);
  }
  expect_sorted_drain(queue, whens);
}

TEST(CalendarQueue, FarFutureEventsSpillToLadderAndReturn) {
  // A tiny wheel (width 64ns x 8 buckets = 512ns horizon) forces almost
  // everything through the ladder and its reseed path.
  CalendarQueue queue(64, 8);
  util::Rng rng(2);
  std::vector<std::int64_t> whens;
  for (int i = 0; i < 3000; ++i) {
    whens.push_back(static_cast<std::int64_t>(rng.next_below(1'000'000'000)));
  }
  std::vector<Key> expected;
  for (std::size_t i = 0; i < whens.size(); ++i) {
    queue.push(make_event(whens[i], i));
    expected.emplace_back(whens[i], i);
  }
  EXPECT_GT(queue.ladder_size(), 0u);
  std::sort(expected.begin(), expected.end());
  std::vector<Key> actual;
  while (!queue.empty()) actual.push_back(key_of(queue.pop()));
  EXPECT_EQ(actual, expected);
}

TEST(CalendarQueue, ResizeChurnKeepsOrder) {
  // Tiny bucket count so occupancy-driven doubling fires repeatedly.
  CalendarQueue queue(1'000, 2);
  util::Rng rng(3);
  std::vector<std::int64_t> whens;
  for (int i = 0; i < 2000; ++i) {
    whens.push_back(static_cast<std::int64_t>(rng.next_below(1'500)));
  }
  expect_sorted_drain(queue, whens);
  EXPECT_GT(queue.resizes(), 0u);
  EXPECT_GT(queue.bucket_count(), 2u);
}

/// Drives `calendar` and a reference min-heap of (when, seq) keys through
/// one random push/pop sequence and expects identical pops, calling clear()
/// on both halfway. Dense mode lets the population grow with immediate,
/// same-tick, in-wheel and far events (ladder spills, grow_wheel rebuilds);
/// sparse mode keeps a handful pending, 1 us to several rotations apart,
/// the way a campaign does (cursor jumps across bitmap words and wraps, full
/// drains re-anchor).
void expect_matches_heap(CalendarQueue& calendar, bool sparse, std::uint64_t seed) {
  const auto rotation_ns =
      calendar.bucket_width_ns() * static_cast<std::int64_t>(calendar.bucket_count());
  const double max_gap_ns = 5.0 * static_cast<double>(rotation_ns);
  std::priority_queue<Key, std::vector<Key>, std::greater<>> reference;
  util::Rng rng(seed);
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::vector<Key> calendar_order;
  std::vector<Key> reference_order;
  for (int round = 0; round < 20'000; ++round) {
    if (round == 10'000) {
      calendar.clear();
      reference = {};
    }
    const bool push = calendar.empty() ||
                      (sparse ? calendar.size() <= rng.next_below(6)
                              : rng.next_below(100) < 60);
    if (push) {
      // Never in the past relative to the virtual clock, like the simulator
      // clamps.
      std::int64_t when = now;
      if (sparse) {
        when += static_cast<std::int64_t>(
            std::exp(rng.uniform(std::log(1e3), std::log(max_gap_ns))));
      } else {
        const std::uint64_t kind = rng.next_below(4);
        if (kind == 1) when += static_cast<std::int64_t>(rng.next_below(100));
        if (kind == 2) {
          when += static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(rotation_ns)));
        }
        if (kind == 3) when += static_cast<std::int64_t>(rng.next_below(100'000'000));
      }
      calendar.push(make_event(when, seq));
      reference.emplace(when, seq);
      ++seq;
    } else {
      ASSERT_EQ(calendar.min_when().count_nanos(), reference.top().first);
      calendar_order.push_back(key_of(calendar.pop()));
      reference_order.push_back(reference.top());
      reference.pop();
      now = calendar_order.back().first;
    }
    ASSERT_EQ(calendar.size(), reference.size());
  }
  while (!calendar.empty()) calendar_order.push_back(key_of(calendar.pop()));
  while (!reference.empty()) {
    reference_order.push_back(reference.top());
    reference.pop();
  }
  EXPECT_EQ(calendar_order, reference_order);
}

TEST(CalendarQueue, InterleavedPushPopMatchesLegacyHeap) {
  // Less than one bitmap word, the default wheel, and 64 words.
  const std::pair<std::int64_t, std::size_t> wheels[] = {
      {128, 16},
      {CalendarQueue::kDefaultBucketWidthNs, CalendarQueue::kDefaultBucketCount},
      {4'096, 4'096},
  };
  for (const auto& [width_ns, buckets] : wheels) {
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(::testing::Message() << buckets << " buckets x " << width_ns << " ns, "
                                        << (sparse ? "sparse" : "dense"));
      CalendarQueue calendar(width_ns, buckets);
      expect_matches_heap(calendar, sparse, 4 + buckets);
      if (!sparse && buckets == 16) {
        EXPECT_GT(calendar.resizes(), 0u);
      }
    }
  }
}

TEST(CalendarQueue, ReanchorsAfterFullDrain) {
  CalendarQueue queue;
  // Drain at a low timestamp, then push far beyond the old horizon: the
  // wheel must re-anchor rather than spill to the ladder forever.
  queue.push(make_event(100, 0));
  (void)queue.pop();
  const std::int64_t far = 40'000'000'000'000;  // ~11 sim-hours
  queue.push(make_event(far, 1));
  EXPECT_EQ(queue.ladder_size(), 0u);  // re-anchored, not laddered
  EXPECT_EQ(queue.pop().when.count_nanos(), far);
}

TEST(CalendarQueue, ClearRetainsBucketCapacity) {
  CalendarQueue queue;
  for (int i = 0; i < 1000; ++i) queue.push(make_event(i * 10, static_cast<std::uint64_t>(i)));
  const std::size_t buckets = queue.bucket_count();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bucket_count(), buckets);
  expect_sorted_drain(queue, {30, 10, 20});
}

TEST(CalendarQueue, BitmapWordsTestedCountOneWordPer64BucketsSkipped) {
  // Three events 500 buckets apart on a 1024-bucket wheel (16 bitmap
  // words). The first pop tests the cursor's word; each later pop tests the
  // cursor's word, now empty above the cursor, then one word per 64 buckets
  // up to the next event's: 1 + 8 + 9. Walking the 1,000 empty buckets in
  // between one at a time would count each of them.
  CalendarQueue queue(64, 1024);
  queue.push(make_event(0, 0));
  queue.push(make_event(500 * 64, 1));
  queue.push(make_event(1000 * 64, 2));
  EXPECT_EQ(queue.bitmap_words_tested(), 0u);
  EXPECT_EQ(queue.pop().seq, 0u);
  EXPECT_EQ(queue.bitmap_words_tested(), 1u);
  EXPECT_EQ(queue.pop().seq, 1u);
  EXPECT_EQ(queue.bitmap_words_tested(), 9u);
  EXPECT_EQ(queue.pop().seq, 2u);
  EXPECT_EQ(queue.bitmap_words_tested(), 18u);
}

}  // namespace
}  // namespace ecnprobe::netsim
