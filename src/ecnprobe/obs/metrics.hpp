// Lock-cheap metrics: counters, gauges, and fixed-bucket histograms grouped
// into labeled families in a MetricsRegistry.
//
// Design constraints, in order:
//
//   1. *Determinism.* Campaign metrics must be byte-identical at one
//      worker and at any other worker count. Everything a
//      snapshot stores is integral (counters, gauge sums, bucket counts,
//      and histogram sums in fixed-point milli-units), so merging per-trace
//      deltas is exact and commutative -- no floating-point accumulation
//      order to worry about. Snapshots order families by name and samples
//      by label set (std::map), so two equal snapshots encode to equal
//      bytes.
//   2. *Cheap on the hot path.* Looking an instrument up takes a mutex;
//      incrementing one is a single relaxed atomic add. Call sites that
//      fire per-packet cache the Counter*/Histogram* pointer once --
//      instrument pointers are stable for the registry's lifetime.
//   3. *Thread-safe.* Workers in a parallel campaign own private
//      registries, but the process-wide default and the runtime registry
//      (progress gauges, worker utilization) are shared across threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ecnprobe::obs {

/// Labels attached to one instrument within a family. std::map so label
/// order is canonical regardless of call-site order.
using LabelSet = std::map<std::string, std::string>;

enum class MetricKind { Counter, Gauge, Histogram };

std::string_view to_string(MetricKind kind);

/// Monotonic counter. Relaxed atomics: totals are read only at snapshot
/// points (trace boundaries, progress polls), never used for ordering.
class Counter {
public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Gauge: a value that can go up and down (in-flight traces, queue depth).
class Gauge {
public:
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::int64_t n) { value_.store(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Observations are bucketed by upper bound
/// (value <= bound); values above the last bound land in the overflow
/// bucket. The running sum is kept in fixed-point milli-units so that
/// snapshot subtraction and merging are exact.
class Histogram {
public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum_milli() const { return sum_milli_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1 (overflow)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_milli_{0};
};

/// Value of one instrument at snapshot time. Which fields are meaningful
/// depends on the owning family's kind.
struct SampleValue {
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  // Histogram: per-bucket counts (bounds.size() + 1, last = overflow).
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::int64_t sum_milli = 0;

  bool is_zero() const;
  void add(const SampleValue& other);
  /// this - base, elementwise. Missing buckets in `base` count as zero.
  SampleValue minus(const SampleValue& base) const;
};

/// One family's worth of samples at snapshot time.
struct FamilySnapshot {
  MetricKind kind = MetricKind::Counter;
  std::string help;
  std::vector<double> bounds;  // histograms only
  std::map<LabelSet, SampleValue> samples;
};

/// A point-in-time copy of a registry (or a delta between two such
/// copies). Plain data: safe to move across threads, merge, and encode.
struct MetricsSnapshot {
  std::map<std::string, FamilySnapshot> families;

  bool empty() const { return families.empty(); }
  /// Element-wise sum; families/samples missing on one side are adopted.
  void merge(const MetricsSnapshot& other);
  /// Element-wise difference vs an earlier snapshot of the same registry.
  /// All-zero samples (registered but untouched in the window) are
  /// dropped, so the delta of an idle window is empty.
  MetricsSnapshot delta_since(const MetricsSnapshot& base) const;
};

/// A process- or worker-scoped collection of metric families. Instrument
/// lookups (counter/gauge/histogram) are mutex-guarded and return stable
/// pointers; increments on the returned instruments are lock-free.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& family, const LabelSet& labels = {},
                   const std::string& help = "");
  Gauge* gauge(const std::string& family, const LabelSet& labels = {},
               const std::string& help = "");
  /// `bounds` must be strictly increasing; it is fixed by the first call
  /// for a family and ignored afterwards.
  Histogram* histogram(const std::string& family, std::vector<double> bounds,
                       const LabelSet& labels = {}, const std::string& help = "");

  MetricsSnapshot snapshot() const;

private:
  struct Family {
    MetricKind kind;
    std::string help;
    std::vector<double> bounds;
    // unique_ptr cells so instrument addresses survive map rehashing.
    std::map<LabelSet, std::unique_ptr<Counter>> counters;
    std::map<LabelSet, std::unique_ptr<Gauge>> gauges;
    std::map<LabelSet, std::unique_ptr<Histogram>> histograms;
  };

  Family& family_locked(const std::string& name, MetricKind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Instrument handles kept by the code that counts, each resolved on its
/// first use: a label set that never fires registers nothing, so snapshots
/// and exports read as they did with a lookup per event. Slots are the
/// caller's enumeration of its label sets; `resolve` returns the
/// instrument for a slot from `registry`, and a change of registry forgets
/// every handle.
template <class Instrument, std::size_t N>
class Handles {
public:
  template <class Resolve>
  Instrument& get(MetricsRegistry& registry, std::size_t slot, Resolve&& resolve) {
    if (registry_ != &registry) {
      registry_ = &registry;
      cells_.fill(nullptr);
    }
    Instrument*& cell = cells_.at(slot);
    if (cell == nullptr) cell = resolve();
    return *cell;
  }

private:
  MetricsRegistry* registry_ = nullptr;
  std::array<Instrument*, N> cells_{};
};

}  // namespace ecnprobe::obs
