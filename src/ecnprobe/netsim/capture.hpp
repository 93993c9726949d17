// Packet capture: the simulator's stand-in for the "parallel tcpdump
// session" the paper runs beside its measurement application. A capture
// attaches to a Host and records every datagram crossing the host's access
// interface in either direction, before transport demux -- so it sees
// responses even when no socket matches, exactly like a packet sniffer.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "ecnprobe/netsim/sim.hpp"
#include "ecnprobe/wire/datagram.hpp"

namespace ecnprobe::netsim {

enum class Direction { Tx, Rx };

struct CapturedPacket {
  SimTime time;
  Direction dir = Direction::Tx;
  wire::Datagram dgram;
};

class PacketCapture {
public:
  /// Optional BPF-style predicate; packets failing it are not recorded.
  using Filter = std::function<bool(const wire::Datagram&)>;

  PacketCapture() = default;
  explicit PacketCapture(Filter filter) : filter_(std::move(filter)) {}

  void record(SimTime time, Direction dir, const wire::Datagram& dgram);

  const std::vector<CapturedPacket>& packets() const { return packets_; }
  /// Drops every recorded packet and gives the storage back (capacity 0),
  /// so a capture only ever holds the packets of the session it records.
  void clear() { std::vector<CapturedPacket>().swap(packets_); }

  /// Records into `storage` from now on, cleared but with its capacity
  /// kept; the storage held before is freed.
  void adopt(std::vector<CapturedPacket> storage) {
    storage.clear();
    packets_ = std::move(storage);
  }
  /// Hands the storage out, packets and capacity, leaving the capture
  /// empty with capacity 0. The campaign executor lends one buffer per
  /// worker to each trace's vantage through adopt() and takes it back here
  /// as the trace commits, so no vantage holds storage between traces.
  std::vector<CapturedPacket> release() { return std::exchange(packets_, {}); }

  /// Convenience filters mirroring common tcpdump expressions.
  static Filter proto_filter(wire::IpProto proto);
  static Filter udp_port_filter(std::uint16_t port);

private:
  Filter filter_;
  std::vector<CapturedPacket> packets_;
};

}  // namespace ecnprobe::netsim
