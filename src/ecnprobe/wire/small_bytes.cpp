#include "ecnprobe/wire/small_bytes.hpp"

#include <limits>
#include <new>
#include <stdexcept>

namespace ecnprobe::wire {

void SmallBytes::grow_to(std::size_t capacity) {
  if (capacity > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SmallBytes: more than 4 GiB");
  }
  auto* block = static_cast<std::uint8_t*>(::operator new(capacity));
  const std::size_t n = size();
  std::memcpy(block, data(), n);
  release();
  set_heap({block, static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(capacity)});
}

}  // namespace ecnprobe::wire
