// Arena allocator tests: steady-state zero-heap behaviour, reset retention,
// poisoning of rewound generations, and the thread isolation the parallel
// campaign workers rely on (TSan covers this file in CI via the util test
// binary).
#include "ecnprobe/util/arena.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>
#include <vector>

namespace ecnprobe::util {
namespace {

TEST(Arena, AllocatesAlignedDistinctRegions) {
  Arena arena;
  auto* a = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  auto* b = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  std::memset(a, 1, 100);
  std::memset(b, 2, 100);
  EXPECT_EQ(a[99], 1);
  EXPECT_EQ(b[0], 2);
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  Arena arena(1024);
  auto* big = arena.allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 7, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 20);
}

TEST(Arena, ResetRetainsBlocksAndStopsHeapGrowth) {
  Arena arena(4096);
  for (int i = 0; i < 64; ++i) arena.allocate(512);
  const std::uint64_t warm = arena.heap_allocations();
  EXPECT_GT(warm, 0u);
  // Ten more generations of the same workload: the warm arena must serve
  // them all without a single further heap allocation.
  for (int gen = 0; gen < 10; ++gen) {
    arena.reset();
    for (int i = 0; i < 64; ++i) arena.allocate(512);
  }
  EXPECT_EQ(arena.heap_allocations(), warm);
  EXPECT_EQ(arena.resets(), 10u);
}

TEST(Arena, ReleaseReturnsMemoryAndStatsRestart) {
  Arena arena;
  arena.allocate(100);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  EXPECT_NE(arena.allocate(100), nullptr);  // usable again after release
}

#if !ECNPROBE_ASAN
TEST(Arena, ResetScribblesRetainedMemory) {
  // Without ASan the rewound generation is overwritten with 0xA5, so stale
  // reads observe deterministic garbage rather than the previous contents.
  Arena arena;
  auto* p = static_cast<std::uint8_t*>(arena.allocate(64));
  std::memset(p, 0x11, 64);
  arena.reset();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(p[i], 0xA5);
}
#else
using ArenaDeathTest = ::testing::Test;
TEST(ArenaDeathTest, UseAfterResetAbortsUnderAsan) {
  // Under AddressSanitizer the rewound blocks are poisoned: touching the
  // previous generation must abort with a use-after-poison report.
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<std::uint8_t*>(arena.allocate(64));
        arena.reset();
        p[0] = 1;  // use-after-reset
      },
      "use-after-poison");
}
#endif

TEST(ArenaAllocator, BacksAStdMapThroughResetCycles) {
  Arena arena;
  using Alloc = ArenaAllocator<std::pair<const int, int>>;
  using Map = std::map<int, int, std::less<int>, Alloc>;
  {
    Map map{Alloc(arena)};
    for (int i = 0; i < 200; ++i) map[i] = i * i;
    EXPECT_EQ(map.at(71), 71 * 71);
    map.clear();  // before the arena rewinds
  }
  const std::uint64_t warm = arena.heap_allocations();
  for (int gen = 0; gen < 5; ++gen) {
    arena.reset();
    Map map{Alloc(arena)};
    for (int i = 0; i < 200; ++i) map[i] = i;
    map.clear();
  }
  EXPECT_EQ(arena.heap_allocations(), warm);
}

TEST(Arena, PerWorkerArenasAreIndependentAcrossThreads) {
  // The parallel campaign gives each worker its own world and hence its own
  // arenas. Hammering private arenas from many threads must be race-free
  // (TSan-checked in CI) and fully deterministic per thread.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::size_t> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &sums] {
      Arena arena(8192);
      for (int gen = 0; gen < 50; ++gen) {
        arena.reset();
        for (int i = 0; i < 100; ++i) {
          auto* p = static_cast<std::uint8_t*>(arena.allocate(64));
          p[0] = static_cast<std::uint8_t>(t);
          sums[static_cast<std::size_t>(t)] += p[0];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[static_cast<std::size_t>(t)], static_cast<std::size_t>(t) * 50 * 100);
  }
}

}  // namespace
}  // namespace ecnprobe::util
