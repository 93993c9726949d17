#include "ecnprobe/util/arena.hpp"

namespace ecnprobe::util {

Arena::Arena(std::size_t block_size)
    : block_size_(block_size == 0 ? kDefaultBlockSize : block_size) {}

Arena::~Arena() { release(); }

void* Arena::allocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  if (align == 0) align = 1;
  while (current_ < blocks_.size()) {
    Block& block = blocks_[current_];
    const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
    if (aligned + size <= block.size) {
      std::byte* p = block.data.get() + aligned;
      unpoison_range(p, size);
      offset_ = aligned + size;
      bytes_allocated_ += size;
      if (bytes_allocated_ > allocated_high_water_) {
        allocated_high_water_ = bytes_allocated_;
      }
      return p;
    }
    // The rest of this block is too small; move on (it stays poisoned).
    ++current_;
    offset_ = 0;
  }
  // Grow: a standard block, or a dedicated one for oversized requests.
  const std::size_t want = size + align > block_size_ ? size + align : block_size_;
  Block block;
  block.data = std::make_unique<std::byte[]>(want);
  block.size = want;
  ++heap_allocations_;
  bytes_reserved_ += want;
  blocks_.push_back(std::move(block));
  current_ = blocks_.size() - 1;
  offset_ = 0;
  poison_block(blocks_.back());  // freshly reserved memory starts poisoned
  Block& fresh = blocks_.back();
  const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
  std::byte* p = fresh.data.get() + aligned;
  unpoison_range(p, size);
  offset_ = aligned + size;
  bytes_allocated_ += size;
  if (bytes_allocated_ > allocated_high_water_) {
    allocated_high_water_ = bytes_allocated_;
  }
  return p;
}

void Arena::reset() {
  for (const Block& block : blocks_) poison_block(block);
  current_ = 0;
  offset_ = 0;
  bytes_allocated_ = 0;
  ++resets_;
}

void Arena::release() {
  // Hand the memory back to the allocator unpoisoned.
  for (const Block& block : blocks_) unpoison_range(block.data.get(), block.size);
  blocks_.clear();
  current_ = 0;
  offset_ = 0;
  bytes_allocated_ = 0;
  bytes_reserved_ = 0;
  allocated_high_water_ = 0;
}

void Arena::poison_block(const Block& block) {
#if ECNPROBE_ASAN
  ASAN_POISON_MEMORY_REGION(block.data.get(), block.size);
#else
  // Deterministic scribble: stale reads observe 0xA5 garbage, never data
  // from the previous generation.
  std::memset(block.data.get(), 0xA5, block.size);
#endif
}

void Arena::unpoison_range(std::byte* p, std::size_t n) {
#if ECNPROBE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace ecnprobe::util
