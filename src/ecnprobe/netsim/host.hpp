// End host with a small network stack: UDP sockets with per-packet ECN
// marking (the knob the whole study turns), protocol handler hooks for the
// userspace TCP stack and for ICMP consumers (traceroute), and capture taps
// that observe every packet on the access link. UDP datagrams with no
// matching socket are dropped silently by default -- matching the observed
// behaviour that traceroutes to NTP servers "stop one hop before the
// destination" (the pool hosts do not answer probes to unused ports).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ecnprobe/netsim/capture.hpp"
#include "ecnprobe/netsim/network.hpp"

namespace ecnprobe::netsim {

/// A UDP datagram delivered to a socket, with the IP-layer metadata the
/// receiving application can observe (source, and the ECN field as
/// received -- how an ECN-aware server would read congestion marks).
struct UdpDelivery {
  wire::Ipv4Address src;
  std::uint16_t src_port = 0;
  wire::Ipv4Address dst;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> payload;
  wire::Ecn ecn = wire::Ecn::NotEct;
  std::uint32_t flight = 0;  ///< flight-recorder id of the carrying datagram
};

class Host;

/// A bound UDP socket. Obtained from Host::open_udp; closing (or dropping
/// the last shared_ptr) releases the port and the receive handler, so the
/// handler may capture the socket's owner. A handler may close its own
/// socket, but must not destroy it (drop an owner its captures do not hold).
class UdpSocket {
public:
  using ReceiveHandler = std::function<void(const UdpDelivery&)>;

  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t local_port() const { return port_; }

  /// Sends a UDP datagram with the given ECN codepoint and TTL.
  void send(wire::Ipv4Address dst, std::uint16_t dst_port,
            std::span<const std::uint8_t> payload, wire::Ecn ecn,
            std::uint8_t ttl = wire::Ipv4Header::kDefaultTtl);

  void set_receive_handler(ReceiveHandler handler) { handler_ = std::move(handler); }
  void close();

private:
  friend class Host;
  UdpSocket(Host& host, std::uint16_t port) : host_(&host), port_(port) {}

  Host* host_;
  std::uint16_t port_;
  ReceiveHandler handler_;
};

class Host final : public Node {
public:
  struct Params {
    /// Send ICMP Port-Unreachable for UDP to a closed port. Off by default:
    /// pool servers observably do not (Section 4.2's truncated traceroutes).
    bool udp_port_unreachable = false;
  };

  Host(std::string name, Params params, util::Rng rng)
      : Node(std::move(name)), params_(params), rng_(rng) {}

  // -- sockets ------------------------------------------------------------

  /// Binds a UDP socket; port 0 picks an ephemeral port. Throws if the port
  /// is taken.
  std::shared_ptr<UdpSocket> open_udp(std::uint16_t port = 0);

  // -- raw datapath (used by the TCP stack and traceroute) -----------------

  /// Sends a fully-formed datagram via the access interface. Stamps the IP
  /// identification field.
  void send_datagram(wire::Datagram dgram);

  /// Installs a handler receiving every datagram of `proto` addressed to
  /// this host (TCP stack, ICMP listeners). One handler per protocol.
  using ProtocolHandler = std::function<void(const wire::Datagram&)>;
  void set_protocol_handler(wire::IpProto proto, ProtocolHandler handler);
  void clear_protocol_handler(wire::IpProto proto);

  // -- capture ("parallel tcpdump") ----------------------------------------

  /// Attaches a capture tap; not owned. Remove before destroying the tap.
  void add_capture(PacketCapture* capture);
  void remove_capture(PacketCapture* capture);

  // -- Node ---------------------------------------------------------------

  void on_receive(wire::Datagram dgram, int ingress_if) override;

  /// Epoch boundary: re-derives the host random stream (ISNs, service
  /// response draws) and rewinds the ephemeral-port allocator, so the
  /// host's behaviour in the new epoch is a pure function of the seed.
  void on_epoch(std::uint64_t epoch_seed) override {
    rng_ = util::Rng(epoch_seed);
    next_ephemeral_ = 49152;
  }

  struct Stats {
    std::uint64_t udp_delivered = 0;
    std::uint64_t udp_no_socket = 0;
    std::uint64_t udp_bad_checksum = 0;
    std::uint64_t sent = 0;
  };
  const Stats& stats() const { return stats_; }

  util::Rng& rng() { return rng_; }

private:
  friend class UdpSocket;
  void release_port(std::uint16_t port);
  std::uint16_t pick_ephemeral_port();
  void deliver_udp(const wire::Datagram& dgram);

  Params params_;
  util::Rng rng_;
  std::map<std::uint16_t, UdpSocket*> udp_sockets_;
  std::map<wire::IpProto, ProtocolHandler> proto_handlers_;
  std::vector<PacketCapture*> captures_;
  std::uint16_t next_ephemeral_ = 49152;
  Stats stats_;
};

}  // namespace ecnprobe::netsim
