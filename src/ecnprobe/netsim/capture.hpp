// Packet capture: the simulator's stand-in for the "parallel tcpdump
// session" the paper runs beside its measurement application. A capture
// attaches to a Host and records every datagram crossing the host's access
// interface in either direction, before transport demux -- so it sees
// responses even when no socket matches, exactly like a packet sniffer.
#pragma once

#include <functional>
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
  /// so a capture only ever holds the packets of the session it records:
  /// the campaign executor clears a vantage's capture as each trace
  /// commits.
  void clear() { std::vector<CapturedPacket>().swap(packets_); }

  /// Convenience filters mirroring common tcpdump expressions.
  static Filter proto_filter(wire::IpProto proto);
  static Filter udp_port_filter(std::uint16_t port);

private:
  Filter filter_;
  std::vector<CapturedPacket> packets_;
};

}  // namespace ecnprobe::netsim
