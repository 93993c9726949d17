#include "ecnprobe/wire/checksum.hpp"

namespace ecnprobe::wire {

namespace {
thread_local std::uint64_t words_summed = 0;
}  // namespace

std::uint64_t checksum_words_summed() { return words_summed; }

std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data, std::uint32_t acc) {
  words_summed += (data.size() + 1) / 2;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i] << 8);
  return acc;
}

std::uint16_t checksum_finish(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return checksum_finish(checksum_accumulate(data));
}

std::uint16_t checksum_update(std::uint16_t check, std::uint16_t old_word,
                              std::uint16_t new_word) {
  // HC' = ~fold(~HC + ~m + m')   (RFC 1624 eqn 3)
  words_summed += 3;
  std::uint32_t acc = static_cast<std::uint32_t>(~check & 0xffff);
  acc += static_cast<std::uint32_t>(~old_word & 0xffff);
  acc += new_word;
  acc = (acc & 0xffff) + (acc >> 16);
  acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

std::uint32_t pseudo_header_sum(std::uint32_t src_addr, std::uint32_t dst_addr,
                                std::uint8_t protocol, std::uint16_t transport_len) {
  std::uint32_t acc = 0;
  acc += src_addr >> 16;
  acc += src_addr & 0xffff;
  acc += dst_addr >> 16;
  acc += dst_addr & 0xffff;
  acc += protocol;
  acc += transport_len;
  return acc;
}

std::uint16_t transport_checksum(std::uint32_t src_addr, std::uint32_t dst_addr,
                                 std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment) {
  const auto acc = checksum_accumulate(
      segment, pseudo_header_sum(src_addr, dst_addr, protocol,
                                 static_cast<std::uint16_t>(segment.size())));
  return checksum_finish(acc);
}

}  // namespace ecnprobe::wire
