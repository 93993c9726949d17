#include "alloc_hook.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;
thread_local std::int64_t t_live = 0;

void* counted_alloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    ++t_calls;
    t_bytes += n;
    t_live += static_cast<std::int64_t>(n);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Sized deletes return exactly what was requested. An unsized delete can
// only give back the block's usable size, which depends on the allocator's
// state; those are counted apart so a caller can tell whether `live` is
// exact.
thread_local std::uint64_t t_unsized_frees = 0;

void counted_free(void* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) t_live -= static_cast<std::int64_t>(n);
  std::free(p);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_unsized_frees;
    t_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts thread_alloc_counts() { return {t_calls, t_bytes, t_live, t_unsized_frees}; }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t n) noexcept { counted_free(p, n); }
void operator delete[](void* p, std::size_t n) noexcept { counted_free(p, n); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
