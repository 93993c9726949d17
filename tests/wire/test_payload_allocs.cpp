// Counts operator new around Datagram copies and captures. The counting
// operator new replaces the global one for this test binary only, which is
// why these tests live apart from test_wire.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "ecnprobe/netsim/capture.hpp"
#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/tcp.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ecnprobe::wire {
namespace {

const Ipv4Address kSrc(10, 1, 1, 1);
const Ipv4Address kDst(11, 2, 2, 2);

/// Heap allocations made by `fn`.
template <class Fn>
long allocations_in(Fn&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// A UDP datagram whose transport segment is `segment_bytes` long.
Datagram udp_with_segment(std::size_t segment_bytes) {
  const std::vector<std::uint8_t> payload(segment_bytes - UdpHeader::kSize, 0xab);
  return make_udp_datagram(kSrc, kDst, 44000, 33435, payload, Ecn::Ect0, 3);
}

TEST(PayloadAllocs, RecordsKeepTheirSize) {
  static_assert(sizeof(Datagram) == 56);
  static_assert(sizeof(netsim::CapturedPacket) == 72);
}

TEST(PayloadAllocs, CopyingUpToTwentyThreeBytesAllocatesNothing) {
  for (std::size_t n = UdpHeader::kSize; n <= SmallBytes::kInline; ++n) {
    const Datagram original = udp_with_segment(n);
    Datagram copy;
    const long allocs = allocations_in([&] { copy = original; });
    EXPECT_EQ(allocs, 0) << n << "-byte segment";
    EXPECT_EQ(copy.payload, original.payload);
    EXPECT_EQ(allocations_in([&] { Datagram moved(std::move(copy)); }), 0);
  }
}

TEST(PayloadAllocs, CopyingTwentyFourBytesAllocatesOnce) {
  const Datagram original = udp_with_segment(SmallBytes::kInline + 1);
  long allocs = 0;
  {
    Datagram copy;
    allocs = allocations_in([&] { copy = original; });
    EXPECT_EQ(copy.payload, original.payload);
  }
  EXPECT_EQ(allocs, 1);
}

TEST(PayloadAllocs, ProbesAndBareSegmentsNeverTouchTheHeap) {
  // A traceroute probe: an 8-byte UDP header and "ecnprobe".
  const std::uint8_t probe_payload[8] = {'e', 'c', 'n', 'p', 'r', 'o', 'b', 'e'};
  Datagram probe;
  EXPECT_EQ(allocations_in([&] {
              probe = make_udp_datagram(kSrc, kDst, 44000, 33435, probe_payload, Ecn::Ect0, 1);
            }),
            0);
  EXPECT_EQ(probe.payload.size(), 16u);

  // A bare ACK and a FIN: a 20-byte TCP header with no options.
  for (const bool fin : {false, true}) {
    TcpHeader header;
    header.src_port = 40000;
    header.dst_port = 80;
    header.flags.ack = true;
    header.flags.fin = fin;
    Datagram segment;
    EXPECT_EQ(allocations_in([&] {
                segment = make_tcp_datagram(kSrc, kDst, header, {}, Ecn::NotEct);
              }),
              0);
    EXPECT_EQ(segment.payload.size(), TcpHeader::kMinSize);
  }
}

TEST(PayloadAllocs, CapturingAllocatesOnlyAboveTwentyThreeBytes) {
  netsim::PacketCapture capture;
  std::vector<netsim::CapturedPacket> storage;
  storage.reserve(4);
  capture.adopt(std::move(storage));
  const Datagram small = udp_with_segment(SmallBytes::kInline);
  const Datagram large = udp_with_segment(SmallBytes::kInline + 1);
  EXPECT_EQ(allocations_in([&] { capture.record({}, netsim::Direction::Tx, small); }), 0);
  EXPECT_EQ(allocations_in([&] { capture.record({}, netsim::Direction::Rx, large); }), 1);
  ASSERT_EQ(capture.packets().size(), 2u);
  EXPECT_EQ(capture.packets()[0].dgram.payload, small.payload);
  EXPECT_EQ(capture.packets()[1].dgram.payload, large.payload);
}

}  // namespace
}  // namespace ecnprobe::wire
