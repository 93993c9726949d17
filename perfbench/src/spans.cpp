#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

int this_thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

}  // namespace

int SpanRecorder::open(std::string name, int parent, int trace) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.trace = trace;
  span.thread = this_thread_number();
  span.allocs = thread_alloc_counts();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

Span SpanRecorder::close(int id) {
  const auto end = std::chrono::steady_clock::now();
  const auto allocs = thread_alloc_counts();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  if (span.end_ns >= 0) throw std::logic_error("span closed twice: " + span.name);
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
  span.allocs = allocs - span.allocs;
  return span;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  const auto all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) children[static_cast<std::size_t>(all[i].parent)].push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span. Children may
    // run on another thread, so they can overlap each other.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const auto c : children[i]) {
      const auto lo = std::max(all[c].start_ns, span.start_ns);
      const auto hi = std::min(all[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const auto layer = span.name.substr(0, span.name.find('.'));
    self[layer] += static_cast<double>(span.end_ns - span.start_ns - covered_ns) / 1e6;
  }
  return self;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto all = spans();
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(std::max<std::int64_t>(s.end_ns - s.start_ns, 0)) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
       << ",\"allocs\":" << s.allocs.calls << ",\"alloc_bytes\":" << s.allocs.bytes
       << ",\"live_delta\":" << s.allocs.live << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

}  // namespace perfbench
