// Bounds-checked big-endian (network byte order) serialisation primitives.
// All wire codecs are written against ByteReader/ByteWriter so that a
// malformed or truncated packet can never read or write out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "ecnprobe/wire/small_bytes.hpp"

namespace ecnprobe::wire {

/// Sequential big-endian reader over a byte span. Reads past the end set a
/// sticky `ok() == false` flag and return zeros; callers check `ok()` once
/// at the end of a parse instead of after every field.
class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!require(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }

  /// Reads `n` raw bytes; returns an empty span (and poisons the reader) on
  /// underrun.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) { (void)bytes(n); }

  /// Remaining unread bytes without consuming them.
  std::span<const std::uint8_t> rest() const {
    return ok_ ? data_.subspan(pos_) : std::span<const std::uint8_t>{};
  }

  /// Random access for decompression-style parsing (DNS name pointers).
  std::span<const std::uint8_t> whole() const { return data_; }
  void seek(std::size_t pos) {
    if (pos > data_.size()) ok_ = false;
    else pos_ = pos;
  }

private:
  bool require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Appending big-endian writer backed by a growable buffer: a
/// std::vector, or a SmallBytes for a transport segment that may stay in
/// place (SegmentWriter).
template <class Buffer>
class BasicByteWriter {
public:
  BasicByteWriter() = default;
  explicit BasicByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    for (int i = 3; i >= 0; --i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// Overwrites a previously written 16-bit field (length/checksum patching).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return {buf_.data(), buf_.size()}; }
  Buffer take() { return std::move(buf_); }

private:
  Buffer buf_;
};

using ByteWriter = BasicByteWriter<std::vector<std::uint8_t>>;
using SegmentWriter = BasicByteWriter<SmallBytes>;

}  // namespace ecnprobe::wire
