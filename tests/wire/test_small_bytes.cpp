#include "ecnprobe/wire/small_bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/datagram.hpp"

namespace ecnprobe::wire {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

// Sizes cluster around the 23/24-byte boundary, where the bytes move
// between the record and the heap.
std::size_t random_size(util::Rng& rng) {
  return rng.next_below(4) == 0 ? rng.next_below(64) : 18 + rng.next_below(12);
}

void expect_same(const SmallBytes& bytes, const std::vector<std::uint8_t>& model, int step) {
  ASSERT_EQ(bytes.size(), model.size()) << "step=" << step;
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), model.begin())) << "step=" << step;
  EXPECT_EQ(bytes.empty(), model.empty());
  EXPECT_GE(bytes.capacity(), bytes.size());
  if (!bytes.on_heap()) {
    EXPECT_LE(bytes.size(), SmallBytes::kInline) << "step=" << step;
  }
}

// Drives a SmallBytes and a std::vector through the same edits and
// requires the same bytes after every one.
TEST(SmallBytes, MatchesVectorAcrossTheInlineBoundary) {
  util::Rng rng(2015);
  SmallBytes bytes;
  std::vector<std::uint8_t> model;
  for (int step = 0; step < 20'000; ++step) {
    switch (rng.next_below(10)) {
      case 0: {
        const auto data = random_bytes(rng, random_size(rng));
        bytes.assign(data);
        model = data;
        break;
      }
      case 1: {
        const auto data = random_bytes(rng, rng.next_below(9));
        const auto at = rng.next_below(model.size() + 1);
        bytes.insert(bytes.begin() + at, data.begin(), data.end());
        model.insert(model.begin() + static_cast<std::ptrdiff_t>(at), data.begin(), data.end());
        break;
      }
      case 2: {
        const auto n = rng.next_below(6);
        const auto value = static_cast<std::uint8_t>(rng.next_below(256));
        bytes.insert(bytes.end(), n, value);
        model.insert(model.end(), n, value);
        break;
      }
      case 3: {
        const auto n = random_size(rng);
        const auto fill = static_cast<std::uint8_t>(rng.next_below(256));
        bytes.resize(n, fill);
        model.resize(n, fill);
        break;
      }
      case 4: {
        const auto value = static_cast<std::uint8_t>(rng.next_below(256));
        bytes.push_back(value);
        model.push_back(value);
        break;
      }
      case 5:
        if (!model.empty()) {
          bytes.pop_back();
          model.pop_back();
        }
        break;
      case 6: {
        SmallBytes copy(bytes);
        EXPECT_EQ(copy, bytes);
        EXPECT_EQ(copy, model);
        SmallBytes assigned(random_bytes(rng, random_size(rng)));
        assigned = copy;
        EXPECT_EQ(assigned, bytes);
        bytes = assigned;
        break;
      }
      case 7: {
        SmallBytes moved(std::move(bytes));
        EXPECT_TRUE(bytes.empty());  // a moved-from SmallBytes is empty
        EXPECT_EQ(moved, model);
        SmallBytes target(random_bytes(rng, random_size(rng)));
        target = std::move(moved);
        bytes = std::move(target);
        break;
      }
      case 8:
        if (!model.empty()) {
          const auto at = rng.next_below(model.size());
          bytes[at] ^= 0x5a;
          model[at] ^= 0x5a;
        }
        break;
      default:
        if (rng.next_below(8) == 0) {
          bytes.clear();
          model.clear();
        }
        break;
    }
    expect_same(bytes, model, step);
    if (HasFatalFailure()) return;
    // Equality agrees with the vector's on a near miss.
    if (!model.empty()) {
      auto other = model;
      other.back() ^= 1;
      EXPECT_FALSE(bytes == other);
      EXPECT_FALSE(bytes == SmallBytes(other));
    }
  }
}

TEST(SmallBytes, HoldsUpToTwentyThreeBytesInPlace) {
  SmallBytes bytes;
  for (std::uint8_t i = 0; i < 23; ++i) bytes.push_back(i);
  EXPECT_FALSE(bytes.on_heap());
  EXPECT_EQ(bytes.capacity(), 23u);
  bytes.push_back(23);
  EXPECT_TRUE(bytes.on_heap());
  EXPECT_GE(bytes.capacity(), 24u);
  for (std::uint8_t i = 0; i < 24; ++i) EXPECT_EQ(bytes[i], i);

  // reserve() sizes a block exactly, as std::vector does.
  SmallBytes reserved;
  reserved.reserve(40);
  EXPECT_TRUE(reserved.on_heap());
  EXPECT_EQ(reserved.capacity(), 40u);
  EXPECT_TRUE(reserved.empty());
  SmallBytes small;
  small.reserve(23);
  EXPECT_FALSE(small.on_heap());
}

TEST(SmallBytes, IsAsLargeAsTheVectorItReplaced) {
  EXPECT_EQ(sizeof(SmallBytes), 24u);
  EXPECT_EQ(sizeof(Datagram), 56u);
}

}  // namespace
}  // namespace ecnprobe::wire
