// Wall-clock self-profiler for the campaign hot path. Everything here is
// EXPLICITLY OUTSIDE the determinism contract: stage durations, queue
// depths, and worker timelines measure the machine, not the simulation,
// and are exported only into unguarded surfaces (the "unguarded_profile"
// member of --bench-json, which scripts/check_bench_json.py ignores, and
// a Chrome-trace sidecar file).
//
// Disabled (the default) every instrumentation point is one relaxed
// atomic load; a Scope on a disabled profiler never reads the clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ecnprobe::obs {

class Profiler {
 public:
  /// Bounded timeline ring: enough for a full reduced-scale campaign's
  /// per-trace slices without unbounded growth on long runs.
  static constexpr std::size_t kMaxSlices = 16384;

  struct StageStats {
    std::uint64_t count = 0;
    std::int64_t total_nanos = 0;
    std::int64_t max_nanos = 0;
  };

  /// One timeline slice for the Chrome trace ("X" complete events).
  struct Slice {
    std::uint64_t thread = 0;  ///< hashed std::thread::id
    std::int64_t start_nanos = 0;  ///< offset from the profiler epoch
    std::int64_t duration_nanos = 0;
    std::string stage;
  };

  static Profiler& process();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled);

  /// RAII stage timer; a no-op (no clock read) while disabled.
  class Scope {
   public:
    explicit Scope(const char* stage);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* stage_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Records a finished stage interval (Scope calls this).
  void record(const char* stage, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  /// High-water gauge: keeps the maximum value reported under `name`.
  void gauge_max(const std::string& name, std::int64_t value);

  /// {"stages": {...}, "gauges": {...}} -- std::map ordering, so equal
  /// profiles encode to equal bytes (handy for tests; the values
  /// themselves are wall-clock noise by design).
  std::string to_json() const;

  /// Chrome trace-event JSON (chrome://tracing / Perfetto "X" events),
  /// one row per worker thread. Returns false if the file cannot be
  /// opened, written or closed (a full disk may show only at the close).
  bool write_chrome_trace(const std::string& path) const;

  std::map<std::string, StageStats> stages() const;
  std::map<std::string, std::int64_t> gauges() const;

  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_{};
  std::map<std::string, StageStats> stages_;
  std::map<std::string, std::int64_t> gauges_;
  std::vector<Slice> slices_;
  std::uint64_t slices_dropped_ = 0;
};

}  // namespace ecnprobe::obs
