// In-memory span recorder. The benchmark opens a span around each call it
// makes into a library layer (and around the intervals between the
// campaign executor's shard callbacks); spans stay in memory and are
// written out once the run ends, so recording costs no I/O while timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "alloc_hook.hpp"

namespace perfbench {

/// One timed interval. Times are nanoseconds since the recorder started.
struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "measure.trace_run"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index of the causing span; -1 for a root
  int trace = -1;            ///< campaign trace index; -1 outside a trace
  int thread = 0;            ///< small per-process thread number
  /// Allocations made inside the span by the thread that opened it
  /// (zero unless allocation counting is on).
  AllocCounts allocs;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Thread-safe: the campaign worker and the main thread record into one
/// recorder. A span must be closed on the thread that opened it.
class SpanRecorder {
public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int open(std::string name, int parent, int trace = -1);
  /// Closes span `id` and returns a copy of it.
  Span close(int id);

  std::vector<Span> spans() const;
  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part of it its child spans cover, summed.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Writes every span as Chrome trace-event JSON (load in a trace viewer).
  bool write_chrome_trace(const std::string& path) const;

private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder (the untraced run) makes it a no-op.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent, int trace = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(std::move(name), parent, trace) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
