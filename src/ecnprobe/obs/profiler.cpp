#include "ecnprobe/obs/profiler.hpp"

#include <cstdio>
#include <functional>
#include <thread>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {

Profiler& Profiler::process() {
  static Profiler profiler;
  return profiler;
}

void Profiler::set_enabled(bool enabled) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled && epoch_ == std::chrono::steady_clock::time_point{}) {
      epoch_ = std::chrono::steady_clock::now();
    }
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

Profiler::Scope::Scope(const char* stage)
    : stage_(stage), active_(Profiler::process().enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

Profiler::Scope::~Scope() {
  if (!active_) return;
  Profiler::process().record(stage_, start_, std::chrono::steady_clock::now());
}

void Profiler::record(const char* stage,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  const auto nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  auto& stats = stages_[stage];
  ++stats.count;
  stats.total_nanos += nanos;
  if (nanos > stats.max_nanos) stats.max_nanos = nanos;
  if (slices_.size() < kMaxSlices) {
    Slice slice;
    slice.thread = thread;
    slice.start_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
            .count();
    slice.duration_nanos = nanos;
    slice.stage = stage;
    slices_.push_back(std::move(slice));
  } else {
    ++slices_dropped_;
  }
}

void Profiler::gauge_max(const std::string& name, std::int64_t value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_[name] = value;
  } else if (value > it->second) {
    it->second = value;
  }
}

std::map<std::string, Profiler::StageStats> Profiler::stages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

std::map<std::string, std::int64_t> Profiler::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_;
}

std::string Profiler::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"stages\":{";
  bool first = true;
  for (const auto& [stage, stats] : stages_) {
    if (!first) out += ",";
    first = false;
    out += util::strf(
        "\"%s\":{\"count\":%llu,\"total_nanos\":%lld,\"max_nanos\":%lld}",
        stage.c_str(), static_cast<unsigned long long>(stats.count),
        static_cast<long long>(stats.total_nanos),
        static_cast<long long>(stats.max_nanos));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += util::strf("\"%s\":%lld", name.c_str(),
                      static_cast<long long>(value));
  }
  out += util::strf("},\"timeline_slices\":%zu,\"timeline_dropped\":%llu}",
                    slices_.size(),
                    static_cast<unsigned long long>(slices_dropped_));
  return out;
}

bool Profiler::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\":[");
  // Stable thread rows: map each hashed id to a small tid in first-seen
  // order so the trace viewer shows "worker 0..N" style lanes.
  std::map<std::uint64_t, int> tids;
  bool first = true;
  for (const auto& slice : slices_) {
    auto [it, inserted] = tids.emplace(slice.thread,
                                       static_cast<int>(tids.size()));
    if (!first) std::fprintf(f, ",");
    first = false;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 slice.stage.c_str(), it->second,
                 static_cast<double>(slice.start_nanos) / 1000.0,
                 static_cast<double>(slice.duration_nanos) / 1000.0);
  }
  std::fprintf(f, "]}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ = std::chrono::steady_clock::now();
  stages_.clear();
  gauges_.clear();
  slices_.clear();
  slices_dropped_ = 0;
}

}  // namespace ecnprobe::obs
