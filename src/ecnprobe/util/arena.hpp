// Arena allocation for the simulation hot path. A campaign probes millions
// of servers through the same handful of per-trace structures; allocating
// those from the general heap costs a malloc/free pair per node and
// scatters them across memory. An Arena trades that for bump-pointer
// blocks that reach a steady state after the first trace: `reset()`
// retains every block it ever grew to, so once warm its clients perform no
// heap allocations at all.
//
// Thread model: not thread-safe, matching the rest of the simulation (one
// world, one arena family, one thread). Parallel campaign workers each own
// their world's arenas; a TSan-covered test pins the per-worker isolation.
//
// Safety: `Arena::reset()` poisons the retained blocks -- with real ASan
// poisoning when compiled under AddressSanitizer (a use-after-reset then
// aborts with a use-after-poison report), and with a 0xA5 scribble pattern
// otherwise so stale reads are at least deterministic garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ECNPROBE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ECNPROBE_ASAN 1
#endif
#endif
#ifndef ECNPROBE_ASAN
#define ECNPROBE_ASAN 0
#endif

#if ECNPROBE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ecnprobe::util {

/// Bump-pointer arena with block retention. Allocation is a pointer
/// increment; there is no per-object free. `reset()` rewinds every block
/// for reuse without returning memory to the heap, so arenas warmed by one
/// trace serve every later trace allocation-free.
class Arena {
public:
  /// `block_size` is the granularity the arena grows by; oversized requests
  /// get a dedicated block of exactly the requested size.
  explicit Arena(std::size_t block_size = kDefaultBlockSize);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  static constexpr std::size_t kDefaultBlockSize = 64 * 1024;

  /// Returns `size` bytes aligned to `align` (a power of two). Never fails
  /// short of the heap itself failing; size 0 returns a valid unique pointer.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t));

  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds all blocks for reuse. No destructors run -- arena clients hold
  /// trivially destructible data or clear their containers first. Retained
  /// blocks are poisoned (ASan) or scribbled (0xA5) so stale pointers into
  /// the previous generation fault loudly instead of silently aliasing.
  void reset();

  /// Releases every block back to the heap (and resets statistics).
  void release();

  // -- statistics (steady-state verification hooks) -------------------------
  std::size_t bytes_allocated() const { return bytes_allocated_; }  ///< since reset
  std::size_t bytes_reserved() const { return bytes_reserved_; }    ///< heap footprint
  /// Largest bytes_allocated() ever observed (survives reset()); the
  /// self-profiler's arena pressure gauge.
  std::size_t bytes_allocated_high_water() const { return allocated_high_water_; }
  std::size_t block_count() const { return blocks_.size(); }
  /// Heap allocations ever made by this arena; a flat value across resets
  /// is the "zero heap allocations after warm-up" property tests pin.
  std::uint64_t heap_allocations() const { return heap_allocations_; }
  std::uint64_t resets() const { return resets_; }

private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void poison_block(const Block& block);
  void unpoison_range(std::byte* p, std::size_t n);

  std::size_t block_size_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< index of the block being bumped
  std::size_t offset_ = 0;   ///< bump offset within blocks_[current_]
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t allocated_high_water_ = 0;
  std::uint64_t heap_allocations_ = 0;
  std::uint64_t resets_ = 0;
};

/// Minimal std-allocator adapter over an Arena, for containers whose
/// lifetime is bracketed by arena resets (the flight recorder's per-trace
/// flight table, scratch vectors). `deallocate` is a no-op: memory comes
/// back at the next `Arena::reset()`.
template <typename T>
class ArenaAllocator {
public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // reclaimed wholesale by Arena::reset

  Arena* arena() const { return arena_; }

  bool operator==(const ArenaAllocator& other) const { return arena_ == other.arena_; }

private:
  template <typename U>
  friend class ArenaAllocator;
  Arena* arena_;
};

}  // namespace ecnprobe::util
