// Count-min sketch: a fixed-size frequency estimator for high-cardinality
// keyed counters (per-hop, per-AS, per-flow drop causes) where an exact
// map would grow O(keys) on the campaign hot path.
//
// The classic Cormode-Muthukrishnan bounds hold: for a sketch built with
// (epsilon, delta), every point estimate E(k) satisfies
//
//     true(k) <= E(k) <= true(k) + epsilon * N      w.p. >= 1 - delta
//
// where N is the total weight added across all keys. Estimates NEVER
// undercount -- each of the depth rows only ever adds, and the estimate
// takes the row minimum -- so exact-vs-sketched reconciliation is a
// one-sided interval check.
//
// Determinism contract: the row hash functions are pure functions of
// (seed, row), derived via util::derive_seed, and merge() is cell-wise
// integer addition -- commutative and associative. Folding per-trace
// deltas in plan order therefore yields byte-identical sketches at any
// worker count, and two sketches built from the same (config, seed,
// stream) are bit-identical on every platform. No floating point touches
// the cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ecnprobe::obs {

class CountMinSketch {
 public:
  // An inert sketch: add/estimate are no-ops returning zero. Lets
  // aggregates hold a sketch member unconditionally.
  CountMinSketch() = default;

  static constexpr std::size_t kMaxCells = std::size_t{1} << 26;

  // width = ceil(e / epsilon), depth = ceil(ln(1 / delta)). Throws
  // std::invalid_argument when epsilon/delta leave (0, 1) or the
  // resulting table would exceed kMaxCells.
  CountMinSketch(double epsilon, double delta, std::uint64_t seed);

  // True when epsilon and delta, both in (0, 1), give a table within
  // kMaxCells: the constructor's cell-cap rule, for parsers to ask first.
  static bool fits(double epsilon, double delta);

  bool active() const { return width_ != 0; }

  void add(std::string_view key, std::uint64_t weight = 1);

  // Row-minimum point estimate. Zero when inert or never-added.
  std::uint64_t estimate(std::string_view key) const;

  // Total weight added (N in the error bound).
  std::uint64_t total() const { return total_; }

  // ceil(epsilon * total): the one-sided overcount bound each estimate
  // respects with probability >= 1 - delta.
  std::uint64_t error_bound() const;

  // Cell-wise addition. Throws std::invalid_argument when dimensions or
  // seeds differ -- merging incompatible sketches would silently corrupt
  // every estimate.
  void merge(const CountMinSketch& other);

  void clear();

  double epsilon() const { return epsilon_; }
  double delta() const { return delta_; }
  std::uint64_t seed() const { return seed_; }
  std::size_t width() const { return width_; }
  std::size_t depth() const { return depth_; }
  std::size_t memory_bytes() const;

 private:
  std::size_t cell_index(std::size_t row, std::string_view key) const;

  double epsilon_ = 0.0;
  double delta_ = 0.0;
  std::uint64_t seed_ = 0;
  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> row_basis_;  // per-row FNV basis from the seed
  std::vector<std::uint64_t> cells_;      // depth_ rows of width_ cells
};

}  // namespace ecnprobe::obs
