// Userspace TCP over the simulated IP layer: three-way handshake with
// RFC 3168 ECN negotiation, reliable byte-stream transfer with RTO
// retransmission and a simple AIMD congestion window, ECE/CWR congestion
// feedback, and orderly FIN teardown. Both the probing client and the pool
// web servers run this stack; the paper's TCP experiment reduces to whether
// the SYN-ACK that comes back is an ECN-setup SYN-ACK.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/wire/tcp.hpp"

namespace ecnprobe::tcp {

struct TcpConfig {
  std::size_t mss = 1400;
  util::SimDuration initial_rto = util::SimDuration::seconds(1);
  util::SimDuration max_rto = util::SimDuration::seconds(8);
  int syn_retries = 3;    ///< retransmissions after the first SYN
  int data_retries = 6;   ///< retransmissions before giving up
  std::size_t initial_cwnd_segments = 10;
  /// Receive window advertised to the peer; the peer's advertisement caps
  /// our bytes in flight (simple static flow control).
  std::uint16_t advertised_window = 65535;
  /// Server-side willingness to negotiate ECN; client-side requests are per
  /// connect() call.
  bool ecn_enabled = false;
  util::SimDuration time_wait = util::SimDuration::seconds(2);
};

enum class TcpState : std::uint8_t {
  Closed,
  Listen,
  SynSent,
  SynReceived,
  Established,
  FinWait1,
  FinWait2,
  CloseWait,
  Closing,
  LastAck,
  TimeWait,
};

std::string_view to_string(TcpState s);

/// Why a connection ended (reported through the close handler).
enum class CloseReason : std::uint8_t {
  Graceful,   ///< FIN handshake completed
  Reset,      ///< peer sent RST
  Timeout,    ///< retransmissions exhausted
  Refused,    ///< SYN answered by RST
  LocalAbort,
};

std::string_view to_string(CloseReason r);

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t ce_received = 0;       ///< data segments that arrived CE-marked
  std::uint64_t ece_acks_sent = 0;
  std::uint64_t ece_acks_received = 0;
  std::uint64_t cwr_sent = 0;
  std::uint64_t congestion_events = 0; ///< cwnd reductions (ECE or RTO)
};

class TcpStack;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
public:
  using ConnectHandler = std::function<void(bool established)>;
  using ReceiveHandler = std::function<void(std::span<const std::uint8_t>)>;
  using CloseHandler = std::function<void(CloseReason)>;

  ~TcpConnection();

  TcpState state() const { return state_; }
  /// True once both ends agreed to use ECN on this connection.
  bool ecn_negotiated() const { return ecn_ok_; }
  const TcpStats& stats() const { return stats_; }

  wire::Ipv4Address local_addr() const { return local_addr_; }
  std::uint16_t local_port() const { return local_port_; }
  wire::Ipv4Address remote_addr() const { return remote_addr_; }
  std::uint16_t remote_port() const { return remote_port_; }

  /// Queues application bytes for transmission.
  void send(std::span<const std::uint8_t> data);
  void send(std::string_view text);

  /// Both handlers are released once the connection finishes (after the
  /// close handler has run), so they may capture the connection's owner.
  void set_receive_handler(ReceiveHandler handler) { receive_ = std::move(handler); }
  void set_close_handler(CloseHandler handler) { on_close_ = std::move(handler); }

  /// Graceful close: FIN once the send queue drains.
  void close();
  /// Immediate RST.
  void abort();

private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, const TcpConfig& config);

  // Segment arrival from the stack's demux.
  void on_segment(const wire::Datagram& dgram, const wire::TcpSegmentView& seg);

  void start_connect(wire::Ipv4Address dst, std::uint16_t dst_port, bool want_ecn,
                     ConnectHandler handler);
  void start_accept(const wire::Datagram& dgram, const wire::TcpSegmentView& syn);

  void send_segment(wire::TcpFlags flags, std::uint32_t seq,
                    std::span<const std::uint8_t> payload, bool mark_ect,
                    std::span<const std::uint8_t> options = {});
  /// min(our MSS, peer's advertised MSS) -- the segment size actually used.
  std::size_t effective_mss() const;
  void send_ack();
  void send_syn(bool is_retransmit);
  void send_syn_ack(bool is_retransmit);
  void try_send_data();
  void maybe_send_fin();

  void arm_rto();
  void disarm_rto();
  void on_rto();

  void handle_established_segment(const wire::Datagram& dgram,
                                  const wire::TcpSegmentView& seg);
  void process_ack(const wire::TcpSegmentView& seg);
  void deliver_in_order();
  void on_peer_fin(std::uint32_t fin_seq);
  void enter_time_wait();
  void finish(CloseReason reason);

  TcpStack& stack_;
  TcpConfig config_;
  TcpState state_ = TcpState::Closed;

  wire::Ipv4Address local_addr_;
  wire::Ipv4Address remote_addr_;
  std::uint16_t local_port_ = 0;
  std::uint16_t remote_port_ = 0;

  // ECN negotiation + feedback state (RFC 3168 section 6.1).
  bool want_ecn_ = false;   ///< client requested / server willing
  bool ecn_ok_ = false;     ///< negotiated
  bool ece_pending_ = false;  ///< receiver: CE seen, echo ECE until CWR
  bool cwr_pending_ = false;  ///< sender: reduced, must send CWR on next data

  // Send state.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  /// Bytes from snd_una_ onward (unsent+unacked). A vector: an empty one
  /// holds no memory, where a deque allocates a node and a map up front.
  std::vector<std::uint8_t> send_buffer_;
  std::size_t inflight_ = 0;              ///< bytes sent but unacked
  std::size_t cwnd_ = 0;
  std::uint16_t peer_window_ = 65535;
  std::size_t peer_mss_ = 0;  ///< from the peer's SYN MSS option; 0 = none seen
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  std::uint32_t peer_syn_flight_ = 0;  ///< flight id carried by the peer's SYN

  // Receive state.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, std::vector<std::uint8_t>> reorder_;
  bool peer_fin_seen_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  // Timers.
  netsim::EventHandle rto_timer_;
  util::SimDuration current_rto_;
  int retries_ = 0;
  netsim::EventHandle time_wait_timer_;

  ConnectHandler on_connect_;
  ReceiveHandler receive_;
  CloseHandler on_close_;
  bool finished_ = false;

  TcpStats stats_;
};

/// Per-host TCP endpoint: owns the demux table, listeners, and the
/// IP-protocol hook on the Host.
class TcpStack {
public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpConnection>)>;

  TcpStack(netsim::Host& host, TcpConfig config);
  ~TcpStack();
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Opens a client connection. The handler fires once with the outcome;
  /// set_receive_handler/set_close_handler may be set afterwards.
  std::shared_ptr<TcpConnection> connect(wire::Ipv4Address dst, std::uint16_t dst_port,
                                         bool want_ecn, TcpConnection::ConnectHandler handler);

  /// Accepts connections on `port`; the handler receives each new
  /// connection after its SYN arrives (before the handshake completes).
  void listen(std::uint16_t port, AcceptHandler handler);
  void close_listener(std::uint16_t port);

  netsim::Host& host() { return host_; }
  const TcpConfig& config() const { return config_; }

  /// Epoch boundary: tears down any surviving flows (normally just
  /// TIME_WAIT remnants -- campaign epochs begin at simulator quiescence)
  /// and rewinds the ephemeral-port allocator so connection five-tuples and
  /// ISN draws replay identically in the new epoch. Listeners survive: a
  /// server keeps serving across epochs.
  void reset_transients();

private:
  friend class TcpConnection;

  struct FlowKey {
    std::uint32_t remote_addr;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    auto operator<=>(const FlowKey&) const = default;
  };

  void on_datagram(const wire::Datagram& dgram);
  void send_rst_for(const wire::Datagram& dgram, const wire::TcpSegmentView& seg);
  void register_flow(const FlowKey& key, std::shared_ptr<TcpConnection> conn);
  void release_flow(const FlowKey& key);
  std::uint16_t pick_ephemeral_port();

  // Outcome counters in the host network's registry, so campaign metrics
  // pick them up per trace: handshakes by role and outcome (established,
  // or the reason the attempt closed), client-side ECN negotiation, and
  // retransmissions.
  void count_handshake(bool server, std::optional<CloseReason> failure);
  void count_ecn_negotiation(bool negotiated);
  void count_retransmission();

  netsim::Host& host_;
  TcpConfig config_;
  std::map<FlowKey, std::shared_ptr<TcpConnection>> flows_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_ephemeral_ = 40000;
  // 2 roles x (established + 5 close reasons), 2 negotiation results,
  // retransmissions.
  obs::Handles<obs::Counter, 15> counters_;
};

}  // namespace ecnprobe::tcp
