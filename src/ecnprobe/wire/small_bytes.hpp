// A byte string that keeps up to 23 bytes in place and one heap block above
// that. It is a Datagram's payload: a traceroute probe's 16-byte UDP
// segment, a bare 20-byte TCP ACK or FIN, and every captured copy of them
// never touch the heap. The type is 24 bytes and pointer-aligned, like the
// std::vector it replaced, so a Datagram stays 56 bytes and a captured
// packet 72.
//
// Layout: bytes [0, 23) hold the bytes in place and byte 23 their count
// (0..23). On the heap, byte 23 is kHeapTag and bytes [0, 16) hold the
// block pointer, the size and the capacity. A heap block is never smaller
// than 24 bytes and is sized like a vector's: exactly on copy or reserve(),
// doubled when an append outgrows it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

namespace ecnprobe::wire {

class SmallBytes {
public:
  static constexpr std::size_t kInline = 23;

  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  SmallBytes() noexcept = default;
  explicit SmallBytes(std::span<const std::uint8_t> bytes) : SmallBytes() { assign(bytes); }
  SmallBytes(std::initializer_list<std::uint8_t> bytes)
      : SmallBytes(std::span<const std::uint8_t>(bytes.begin(), bytes.size())) {}
  SmallBytes(const SmallBytes& other) : SmallBytes() { assign(other.view()); }
  SmallBytes(SmallBytes&& other) noexcept : SmallBytes() { steal(other); }
  SmallBytes& operator=(const SmallBytes& other) {
    if (this != &other) assign(other.view());
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  SmallBytes& operator=(std::span<const std::uint8_t> bytes) {
    assign(bytes);
    return *this;
  }
  ~SmallBytes() { release(); }

  bool on_heap() const { return raw_[kInline] == kHeapTag; }
  std::size_t size() const { return on_heap() ? heap().size : raw_[kInline]; }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return on_heap() ? heap().capacity : kInline; }

  std::uint8_t* data() { return on_heap() ? heap().data : raw_; }
  const std::uint8_t* data() const { return on_heap() ? heap().data : raw_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  std::uint8_t& front() { return data()[0]; }
  std::uint8_t& back() { return data()[size() - 1]; }
  std::span<const std::uint8_t> view() const { return {data(), size()}; }
  /// A copy in a std::vector of its own: one allocation.
  operator std::vector<std::uint8_t>() const { return {begin(), end()}; }

  void assign(std::span<const std::uint8_t> bytes) {
    clear();
    reserve(bytes.size());
    std::copy(bytes.begin(), bytes.end(), data());
    set_size(bytes.size());
  }
  template <class It>
  void assign(It first, It last) {
    clear();
    insert(end(), first, last);
  }

  void clear() { set_size(0); }
  /// Capacity for at least `n` bytes; a block it allocates is exactly `n`.
  void reserve(std::size_t n) {
    if (n > capacity()) grow_to(n);
  }
  void resize(std::size_t n, std::uint8_t fill = 0) {
    const std::size_t old = size();
    if (n > old) {
      make_room(n);
      std::fill(data() + old, data() + n, fill);
    }
    set_size(n);
  }
  void push_back(std::uint8_t byte) {
    const std::size_t old = size();
    make_room(old + 1);
    data()[old] = byte;
    set_size(old + 1);
  }
  void pop_back() { set_size(size() - 1); }

  /// Inserts [first, last) before `pos`, as std::vector::insert does.
  template <class It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    const std::size_t at = open_gap(pos, n);
    std::copy(first, last, data() + at);
    return data() + at;
  }
  iterator insert(const_iterator pos, std::size_t n, std::uint8_t value) {
    const std::size_t at = open_gap(pos, n);
    std::fill(data() + at, data() + at + n, value);
    return data() + at;
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return std::ranges::equal(a.view(), b.view());
  }
  friend bool operator==(const SmallBytes& a, std::span<const std::uint8_t> b) {
    return std::ranges::equal(a.view(), b);
  }

private:
  static constexpr std::uint8_t kHeapTag = 0xff;

  struct Heap {
    std::uint8_t* data;
    std::uint32_t size;
    std::uint32_t capacity;
  };
  static_assert(sizeof(Heap) <= kInline);

  Heap heap() const {
    Heap h;
    std::memcpy(&h, raw_, sizeof h);
    return h;
  }
  void set_heap(const Heap& h) {
    std::memcpy(raw_, &h, sizeof h);
    raw_[kInline] = kHeapTag;
  }
  void set_size(std::size_t n) {
    if (on_heap()) {
      Heap h = heap();
      h.size = static_cast<std::uint32_t>(n);
      set_heap(h);
    } else {
      raw_[kInline] = static_cast<std::uint8_t>(n);
    }
  }
  /// Capacity for `n` bytes, doubling a heap block that is too small.
  void make_room(std::size_t n) {
    if (n > capacity()) grow_to(std::max(n, 2 * capacity()));
  }
  /// Makes room for `n` bytes at `pos` and returns the gap's offset.
  std::size_t open_gap(const_iterator pos, std::size_t n) {
    const auto at = static_cast<std::size_t>(pos - data());
    const std::size_t old = size();
    make_room(old + n);
    std::memmove(data() + at + n, data() + at, old - at);
    set_size(old + n);
    return at;
  }
  /// Moves the bytes into a heap block of exactly `capacity` bytes.
  void grow_to(std::size_t capacity);
  void release() {
    if (on_heap()) ::operator delete(heap().data);
  }
  /// Takes `other`'s bytes and leaves it empty, in place; `*this` holds
  /// nothing of its own.
  void steal(SmallBytes& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof raw_);
    other.raw_[kInline] = 0;
  }

  alignas(std::uint8_t*) std::uint8_t raw_[kInline + 1] = {};  // empty, in place
};

static_assert(sizeof(SmallBytes) == 24);

}  // namespace ecnprobe::wire
