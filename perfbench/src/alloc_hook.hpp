// Counting replacement of the global operator new/delete. Counting is off
// by default, so an untraced run pays one relaxed load per allocation; the
// traced run switches it on. Counters are per thread: a span reads the
// counters of the thread it runs on, so the campaign worker's trace-run
// spans see only the worker's allocations.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested from operator new
  /// Bytes allocated minus bytes freed on this thread while counting was
  /// on: the thread's contribution to the live heap.
  std::int64_t live = 0;
  /// Frees through an unsized operator delete, which can only subtract the
  /// block's usable size; `live` is exact while this stays zero.
  std::uint64_t unsized_frees = 0;

  AllocCounts operator-(const AllocCounts& base) const {
    return {calls - base.calls, bytes - base.bytes, live - base.live,
            unsized_frees - base.unsized_frees};
  }
};

void set_alloc_counting(bool on);
AllocCounts thread_alloc_counts();

}  // namespace perfbench
