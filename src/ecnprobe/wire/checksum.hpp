// The Internet checksum (RFC 1071) and the UDP/TCP pseudo-header variant
// (RFC 768 / RFC 793). Used by every header codec and verified on receive in
// both the simulator host stack and the live raw-socket driver.
#pragma once

#include <cstdint>
#include <span>

namespace ecnprobe::wire {

/// One's-complement sum of 16-bit words (RFC 1071), without final inversion.
/// Odd trailing byte is padded with zero. Exposed for incremental use.
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                  std::uint32_t acc = 0);

/// Folds a 32-bit accumulator to 16 bits and inverts. 0 maps to 0xffff per
/// UDP convention handled by callers.
std::uint16_t checksum_finish(std::uint32_t acc);

/// Complete Internet checksum over a buffer.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// RFC 1624 incremental update: the checksum after one 16-bit word of the
/// covered data changes from `old_word` to `new_word`, given the checksum
/// `check` computed before the change: a rewrite of one stored header word
/// (TTL, the ECN codepoint) patches the stored checksum with this instead
/// of re-summing the whole header.
///
/// Uses the corrected HC' = ~(~HC + ~m + m') form. For IPv4 headers this is
/// bit-exact with a full recompute: the version/IHL byte 0x45 forces the
/// folded one's-complement sum into [1, 0xffff], so the stored checksum is
/// never 0xffff and the +0/-0 ambiguity RFC 1624 warns about cannot arise.
/// A 10k-case property test pins this equivalence.
std::uint16_t checksum_update(std::uint16_t check, std::uint16_t old_word,
                              std::uint16_t new_word);

/// 16-bit words the calling thread has fed into one's-complement sums so
/// far: checksum_accumulate() counts one per word of its data (an odd
/// trailing byte is a word), checksum_update() three (~HC, ~m and m'). A
/// deterministic cost count for benches: an RFC 1624 rewrite of one IPv4
/// header word costs 3, a full re-sum of the header 10.
std::uint64_t checksum_words_summed();

/// Pseudo-header seed for UDP/TCP checksums: src/dst address, protocol, and
/// transport length, as RFC 768/793 require.
std::uint32_t pseudo_header_sum(std::uint32_t src_addr, std::uint32_t dst_addr,
                                std::uint8_t protocol, std::uint16_t transport_len);

/// Checksum of a full transport segment (header+payload bytes with the
/// checksum field zeroed) including the pseudo-header.
std::uint16_t transport_checksum(std::uint32_t src_addr, std::uint32_t dst_addr,
                                 std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment);

}  // namespace ecnprobe::wire
