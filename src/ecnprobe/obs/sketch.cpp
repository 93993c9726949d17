#include "ecnprobe/obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ecnprobe/util/hash.hpp"
#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::obs {

namespace {

constexpr double kEuler = 2.718281828459045;

// Table dimensions in double, so a tiny epsilon cannot overflow a cast.
double table_width(double epsilon) { return std::ceil(kEuler / epsilon); }
double table_depth(double delta) { return std::max(1.0, std::ceil(std::log(1.0 / delta))); }

}  // namespace

bool CountMinSketch::fits(double epsilon, double delta) {
  return table_width(epsilon) * table_depth(delta) <= static_cast<double>(kMaxCells);
}

CountMinSketch::CountMinSketch(double epsilon, double delta,
                               std::uint64_t seed)
    : epsilon_(epsilon), delta_(delta), seed_(seed) {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("CountMinSketch: epsilon must be in (0, 1)");
  }
  if (!(delta > 0.0) || !(delta < 1.0)) {
    throw std::invalid_argument("CountMinSketch: delta must be in (0, 1)");
  }
  if (!fits(epsilon, delta)) {
    throw std::invalid_argument("CountMinSketch: table would exceed cell cap");
  }
  width_ = static_cast<std::size_t>(table_width(epsilon));
  depth_ = static_cast<std::size_t>(table_depth(delta));
  row_basis_.reserve(depth_);
  for (std::size_t row = 0; row < depth_; ++row) {
    // Each row hashes with its own FNV basis so the rows are independent
    // functions of the key; the bases are pure functions of (seed, row).
    row_basis_.push_back(util::derive_seed(seed_, static_cast<std::uint64_t>(row)));
  }
  cells_.assign(width_ * depth_, 0);
}

std::size_t CountMinSketch::cell_index(std::size_t row,
                                       std::string_view key) const {
  return row * width_ +
         static_cast<std::size_t>(util::fnv1a64(key, row_basis_[row]) % width_);
}

void CountMinSketch::add(std::string_view key, std::uint64_t weight) {
  if (width_ == 0 || weight == 0) return;
  for (std::size_t row = 0; row < depth_; ++row) {
    cells_[cell_index(row, key)] += weight;
  }
  total_ += weight;
}

std::uint64_t CountMinSketch::estimate(std::string_view key) const {
  if (width_ == 0) return 0;
  std::uint64_t best = cells_[cell_index(0, key)];
  for (std::size_t row = 1; row < depth_; ++row) {
    const std::uint64_t cell = cells_[cell_index(row, key)];
    if (cell < best) best = cell;
  }
  return best;
}

std::uint64_t CountMinSketch::error_bound() const {
  if (width_ == 0) return 0;
  return static_cast<std::uint64_t>(
      std::ceil(epsilon_ * static_cast<double>(total_)));
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (other.width_ == 0) return;
  if (width_ == 0) {
    *this = other;
    return;
  }
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    throw std::invalid_argument(
        "CountMinSketch::merge: incompatible sketch dimensions or seed");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

void CountMinSketch::clear() {
  cells_.assign(cells_.size(), 0);
  total_ = 0;
}

std::size_t CountMinSketch::memory_bytes() const {
  return cells_.capacity() * sizeof(std::uint64_t) +
         row_basis_.capacity() * sizeof(std::uint64_t) + sizeof(*this);
}

}  // namespace ecnprobe::obs
