#include "ecnprobe/tcp/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/util/log.hpp"

namespace ecnprobe::tcp {

namespace {

// 32-bit sequence-space comparisons (RFC 793 modular arithmetic).
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }
inline bool seq_geq(std::uint32_t a, std::uint32_t b) { return seq_leq(b, a); }

}  // namespace

std::string_view to_string(TcpState s) {
  switch (s) {
    case TcpState::Closed: return "CLOSED";
    case TcpState::Listen: return "LISTEN";
    case TcpState::SynSent: return "SYN-SENT";
    case TcpState::SynReceived: return "SYN-RECEIVED";
    case TcpState::Established: return "ESTABLISHED";
    case TcpState::FinWait1: return "FIN-WAIT-1";
    case TcpState::FinWait2: return "FIN-WAIT-2";
    case TcpState::CloseWait: return "CLOSE-WAIT";
    case TcpState::Closing: return "CLOSING";
    case TcpState::LastAck: return "LAST-ACK";
    case TcpState::TimeWait: return "TIME-WAIT";
  }
  return "?";
}

std::string_view to_string(CloseReason r) {
  switch (r) {
    case CloseReason::Graceful: return "graceful";
    case CloseReason::Reset: return "reset";
    case CloseReason::Timeout: return "timeout";
    case CloseReason::Refused: return "refused";
    case CloseReason::LocalAbort: return "local-abort";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------


TcpConnection::TcpConnection(TcpStack& stack, const TcpConfig& config)
    : stack_(stack),
      config_(config),
      cwnd_(config.initial_cwnd_segments * config.mss),
      current_rto_(config.initial_rto) {}

TcpConnection::~TcpConnection() {
  disarm_rto();
  time_wait_timer_.cancel();
}

void TcpConnection::start_connect(wire::Ipv4Address dst, std::uint16_t dst_port,
                                  bool want_ecn, ConnectHandler handler) {
  local_addr_ = stack_.host().address();
  remote_addr_ = dst;
  remote_port_ = dst_port;
  want_ecn_ = want_ecn;
  on_connect_ = std::move(handler);
  iss_ = static_cast<std::uint32_t>(stack_.host().rng().next_u64());
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  state_ = TcpState::SynSent;
  send_syn(false);
  arm_rto();
}

void TcpConnection::start_accept(const wire::Datagram& dgram,
                                 const wire::TcpSegmentView& syn) {
  local_addr_ = stack_.host().address();
  local_port_ = syn.header.dst_port;
  remote_addr_ = dgram.ip.src;
  remote_port_ = syn.header.src_port;
  irs_ = syn.header.seq;
  rcv_nxt_ = syn.header.seq + 1;
  peer_window_ = syn.header.window;
  if (const auto mss = wire::find_mss_option(syn.header.options)) peer_mss_ = *mss;
  iss_ = static_cast<std::uint32_t>(stack_.host().rng().next_u64());
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  peer_syn_flight_ = dgram.flight;
  // RFC 3168 6.1.1: the passive side agrees to ECN iff the SYN was an
  // ECN-setup SYN and this host is willing.
  ecn_ok_ = config_.ecn_enabled && syn.header.is_ecn_setup_syn();
  state_ = TcpState::SynReceived;
  send_syn_ack(false);
  arm_rto();
}

void TcpConnection::send(std::span<const std::uint8_t> data) {
  if (finished_ || fin_queued_) return;
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  if (state_ == TcpState::Established || state_ == TcpState::CloseWait) try_send_data();
}

void TcpConnection::send(std::string_view text) {
  send(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                     text.size()));
}

void TcpConnection::close() {
  if (finished_ || fin_queued_) return;
  if (state_ == TcpState::SynSent) {
    finish(CloseReason::LocalAbort);
    return;
  }
  fin_queued_ = true;
  maybe_send_fin();
}

void TcpConnection::abort() {
  if (finished_) return;
  wire::TcpFlags flags;
  flags.rst = true;
  flags.ack = true;
  send_segment(flags, snd_nxt_, {}, false);
  finish(CloseReason::LocalAbort);
}

std::size_t TcpConnection::effective_mss() const {
  return peer_mss_ > 0 ? std::min(config_.mss, peer_mss_) : config_.mss;
}

void TcpConnection::send_segment(wire::TcpFlags flags, std::uint32_t seq,
                                 std::span<const std::uint8_t> payload, bool mark_ect,
                                 std::span<const std::uint8_t> options) {
  wire::TcpHeader header;
  header.src_port = local_port_;
  header.dst_port = remote_port_;
  header.seq = seq;
  header.window = config_.advertised_window;
  header.options.assign(options.begin(), options.end());
  if (flags.ack) {
    header.ack = rcv_nxt_;
    // RFC 3168: the receiver echoes ECE on every ACK from CE receipt until
    // the sender's CWR arrives. Never on handshake segments.
    if (ecn_ok_ && ece_pending_ && !flags.syn) {
      flags.ece = true;
      ++stats_.ece_acks_sent;
    }
  }
  header.flags = flags;
  // Data on a negotiated connection is ECT(0); pure ACKs, handshake
  // segments, and retransmissions stay not-ECT (RFC 3168 sections 6.1.1,
  // 6.1.4, 6.1.5).
  const wire::Ecn ecn = (ecn_ok_ && mark_ect) ? wire::Ecn::Ect0 : wire::Ecn::NotEct;
  ++stats_.segments_sent;
  stack_.host().send_datagram(
      wire::make_tcp_datagram(local_addr_, remote_addr_, header, payload, ecn));
}

void TcpConnection::send_ack() {
  wire::TcpFlags flags;
  flags.ack = true;
  send_segment(flags, snd_nxt_, {}, false);
}

void TcpConnection::send_syn(bool is_retransmit) {
  wire::TcpFlags flags;
  flags.syn = true;
  if (want_ecn_) {
    // ECN-setup SYN: ECE and CWR both set; the packet itself is not-ECT.
    flags.ece = true;
    flags.cwr = true;
  }
  if (is_retransmit) {
    ++stats_.retransmissions;
    stack_.count_retransmission();
  }
  // Each SYN (re)transmission is its own flight attempt within the probe.
  auto& recorder = stack_.host().network().obs().recorder;
  if (recorder.armed()) {
    recorder.set_seq(static_cast<int>(stats_.retransmissions));
    recorder.begin_flight(is_retransmit);
  }
  const auto mss = wire::make_mss_option(static_cast<std::uint16_t>(config_.mss));
  send_segment(flags, iss_, {}, false, mss);
}

void TcpConnection::send_syn_ack(bool is_retransmit) {
  wire::TcpFlags flags;
  flags.syn = true;
  flags.ack = true;
  if (ecn_ok_) flags.ece = true;  // ECN-setup SYN-ACK: ECE set, CWR clear
  if (is_retransmit) {
    ++stats_.retransmissions;
    stack_.count_retransmission();
  }
  // The SYN-ACK rides the client SYN's flight: the return path belongs to
  // the same probe span (a send event was already recorded for the SYN).
  auto& recorder = stack_.host().network().obs().recorder;
  if (recorder.armed() && peer_syn_flight_ != 0) recorder.stage_reply(peer_syn_flight_);
  const auto mss = wire::make_mss_option(static_cast<std::uint16_t>(config_.mss));
  send_segment(flags, iss_, {}, false, mss);
}

void TcpConnection::try_send_data() {
  const std::uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  std::size_t unacked = data_end - snd_una_;
  std::size_t unsent = send_buffer_.size() - unacked;
  const std::size_t window = std::min<std::size_t>(cwnd_, peer_window_);

  while (unsent > 0 && unacked < window) {
    const std::size_t len = std::min({effective_mss(), unsent, window - unacked});
    const auto payload = std::span<const std::uint8_t>(send_buffer_).subspan(unacked, len);
    wire::TcpFlags flags;
    flags.ack = true;
    flags.psh = unsent == len;
    if (cwr_pending_) {
      flags.cwr = true;  // signals "I reduced" after an ECE (RFC 3168 6.1.2)
      cwr_pending_ = false;
      ++stats_.cwr_sent;
    }
    send_segment(flags, snd_nxt_, payload, true);
    snd_nxt_ += static_cast<std::uint32_t>(len);
    unacked += len;
    unsent -= len;
  }
  if (snd_nxt_ != snd_una_ && !rto_timer_.pending()) arm_rto();
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_queued_ || fin_sent_ || finished_) return;
  const std::size_t unacked = snd_nxt_ - snd_una_;
  const std::size_t unsent = send_buffer_.size() - unacked;
  if (unsent > 0) return;  // FIN goes after the last data byte
  wire::TcpFlags flags;
  flags.fin = true;
  flags.ack = true;
  fin_seq_ = snd_nxt_;
  send_segment(flags, fin_seq_, {}, false);
  snd_nxt_ = fin_seq_ + 1;
  fin_sent_ = true;
  if (state_ == TcpState::Established) state_ = TcpState::FinWait1;
  else if (state_ == TcpState::CloseWait) state_ = TcpState::LastAck;
  if (!rto_timer_.pending()) arm_rto();
}

void TcpConnection::arm_rto() {
  disarm_rto();
  auto self = weak_from_this();
  rto_timer_ = stack_.host().network().sim().schedule(current_rto_, [self]() {
    if (auto conn = self.lock()) conn->on_rto();
  });
}

void TcpConnection::disarm_rto() { rto_timer_.cancel(); }

void TcpConnection::on_rto() {
  if (finished_) return;
  ++retries_;
  const int limit =
      state_ == TcpState::SynSent || state_ == TcpState::SynReceived
          ? config_.syn_retries
          : config_.data_retries;
  if (retries_ > limit) {
    const bool connecting = state_ == TcpState::SynSent || state_ == TcpState::SynReceived;
    finish(connecting ? CloseReason::Refused : CloseReason::Timeout);
    return;
  }
  current_rto_ = current_rto_ * 2;
  if (current_rto_ > config_.max_rto) current_rto_ = config_.max_rto;

  switch (state_) {
    case TcpState::SynSent:
      send_syn(true);
      break;
    case TcpState::SynReceived:
      send_syn_ack(true);
      break;
    default: {
      // Loss is a congestion signal, like ECE.
      cwnd_ = std::max(cwnd_ / 2, config_.mss);
      ++stats_.congestion_events;
      const std::uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
      const std::size_t unacked = data_end - snd_una_;
      if (unacked > 0) {
        const std::size_t len = std::min(effective_mss(), unacked);
        const auto payload = std::span<const std::uint8_t>(send_buffer_).first(len);
        wire::TcpFlags flags;
        flags.ack = true;
        ++stats_.retransmissions;
        stack_.count_retransmission();
        // Retransmissions are not ECT-marked (RFC 3168 section 6.1.5).
        send_segment(flags, snd_una_, payload, false);
      } else if (fin_sent_) {
        wire::TcpFlags flags;
        flags.fin = true;
        flags.ack = true;
        ++stats_.retransmissions;
        stack_.count_retransmission();
        send_segment(flags, fin_seq_, {}, false);
      }
      break;
    }
  }
  arm_rto();
}

void TcpConnection::on_segment(const wire::Datagram& dgram,
                               const wire::TcpSegmentView& seg) {
  if (finished_) return;
  ++stats_.segments_received;
  peer_window_ = seg.header.window;

  if (seg.header.flags.rst) {
    if (state_ == TcpState::SynSent || state_ == TcpState::SynReceived) {
      if (on_connect_) {
        auto handler = std::move(on_connect_);
        on_connect_ = nullptr;
        handler(false);
      }
      finish(CloseReason::Refused);
    } else {
      finish(CloseReason::Reset);
    }
    return;
  }

  switch (state_) {
    case TcpState::SynSent: {
      if (!seg.header.flags.syn || !seg.header.flags.ack) return;
      if (seg.header.ack != iss_ + 1) return;  // not for our SYN
      irs_ = seg.header.seq;
      rcv_nxt_ = seg.header.seq + 1;
      if (const auto mss = wire::find_mss_option(seg.header.options)) peer_mss_ = *mss;
      snd_una_ = seg.header.ack;
      snd_nxt_ = seg.header.ack;
      ecn_ok_ = want_ecn_ && seg.header.is_ecn_setup_syn_ack();
      state_ = TcpState::Established;
      stack_.count_handshake(/*server=*/false, std::nullopt);
      if (want_ecn_) stack_.count_ecn_negotiation(ecn_ok_);
      retries_ = 0;
      current_rto_ = config_.initial_rto;
      disarm_rto();
      send_ack();
      if (on_connect_) {
        auto handler = std::move(on_connect_);
        on_connect_ = nullptr;
        handler(true);
      }
      try_send_data();
      return;
    }
    case TcpState::SynReceived: {
      if (seg.header.flags.syn) {
        send_syn_ack(true);  // duplicate SYN: our SYN-ACK was lost
        return;
      }
      if (seg.header.flags.ack && seg.header.ack == iss_ + 1) {
        snd_una_ = iss_ + 1;
        snd_nxt_ = iss_ + 1;
        state_ = TcpState::Established;
        stack_.count_handshake(/*server=*/true, std::nullopt);
        retries_ = 0;
        current_rto_ = config_.initial_rto;
        disarm_rto();
        // The handshake ACK may already carry data; fall through.
        handle_established_segment(dgram, seg);
        try_send_data();
      }
      return;
    }
    case TcpState::Established:
    case TcpState::FinWait1:
    case TcpState::FinWait2:
    case TcpState::CloseWait:
    case TcpState::Closing:
    case TcpState::LastAck:
      handle_established_segment(dgram, seg);
      return;
    case TcpState::TimeWait:
      if (seg.header.flags.fin) send_ack();  // retransmitted FIN
      return;
    case TcpState::Closed:
    case TcpState::Listen:
      return;
  }
}

void TcpConnection::handle_established_segment(const wire::Datagram& dgram,
                                               const wire::TcpSegmentView& seg) {
  if (seg.header.flags.ack) process_ack(seg);
  if (finished_) return;

  if (!seg.payload.empty()) {
    // RFC 3168: receipt of a CE-marked data segment arms ECE echoing;
    // receipt of CWR (the sender's "I reduced") disarms it.
    if (dgram.ip.ecn == wire::Ecn::Ce) {
      ++stats_.ce_received;
      if (ecn_ok_) ece_pending_ = true;
    }
    if (seg.header.flags.cwr) ece_pending_ = false;

    std::uint32_t seq = seg.header.seq;
    std::vector<std::uint8_t> data(seg.payload.begin(), seg.payload.end());
    if (seq_lt(seq, rcv_nxt_)) {
      const std::uint32_t overlap = rcv_nxt_ - seq;
      if (overlap >= data.size()) {
        send_ack();  // full duplicate; re-ACK
        data.clear();
      } else {
        data.erase(data.begin(), data.begin() + overlap);
        seq = rcv_nxt_;
      }
    }
    if (!data.empty()) {
      reorder_.emplace(seq, std::move(data));
      deliver_in_order();
      send_ack();
    }
  }

  if (seg.header.flags.fin) {
    const std::uint32_t fin_seq = seg.header.seq + static_cast<std::uint32_t>(
                                                       seg.payload.size());
    on_peer_fin(fin_seq);
  }
}

void TcpConnection::process_ack(const wire::TcpSegmentView& seg) {
  const std::uint32_t acked = seg.header.ack;
  if (seq_gt(acked, snd_nxt_)) return;  // acks data we never sent

  // ECE handling (RFC 3168 6.1.2): one cwnd reduction per congestion window;
  // cwr_pending_ gates further reductions until CWR is emitted.
  if (seg.header.flags.ece && ecn_ok_) {
    ++stats_.ece_acks_received;
    if (!cwr_pending_) {
      cwnd_ = std::max(cwnd_ / 2, config_.mss);
      ++stats_.congestion_events;
      cwr_pending_ = true;
    }
  }

  if (seq_gt(acked, snd_una_)) {
    const std::uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
    const std::uint32_t data_acked_end = seq_lt(acked, data_end) ? acked : data_end;
    const std::size_t bytes_acked = data_acked_end - snd_una_;
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(bytes_acked));
    snd_una_ = acked;
    retries_ = 0;
    current_rto_ = config_.initial_rto;
    if (snd_una_ == snd_nxt_) disarm_rto();
    else arm_rto();

    const bool fin_acked = fin_sent_ && seq_geq(acked, fin_seq_ + 1);
    if (fin_acked) {
      if (state_ == TcpState::FinWait1) state_ = TcpState::FinWait2;
      else if (state_ == TcpState::Closing) { enter_time_wait(); return; }
      else if (state_ == TcpState::LastAck) { finish(CloseReason::Graceful); return; }
    }
    try_send_data();
  }
}

void TcpConnection::deliver_in_order() {
  while (true) {
    const auto it = reorder_.find(rcv_nxt_);
    if (it == reorder_.end()) break;
    std::vector<std::uint8_t> data = std::move(it->second);
    reorder_.erase(it);
    rcv_nxt_ += static_cast<std::uint32_t>(data.size());
    stats_.bytes_delivered += data.size();
    if (receive_) {
      // Run the handler from a local: it may abort this connection, and
      // finish() releases the handlers, which must not destroy one that runs.
      ReceiveHandler handler = std::exchange(receive_, nullptr);
      handler(data);
      if (!finished_ && !receive_) receive_ = std::move(handler);
    }
    if (finished_) return;  // handler may have aborted
  }
  // A FIN that arrived ahead of missing data becomes deliverable once the
  // gap fills.
  if (peer_fin_seen_ && peer_fin_seq_ == rcv_nxt_) on_peer_fin(peer_fin_seq_);
}

void TcpConnection::on_peer_fin(std::uint32_t fin_seq) {
  if (finished_) return;
  if (seq_gt(fin_seq, rcv_nxt_)) {
    // FIN beyond a reassembly gap: remember it.
    peer_fin_seen_ = true;
    peer_fin_seq_ = fin_seq;
    return;
  }
  if (seq_lt(fin_seq, rcv_nxt_)) {
    send_ack();  // old duplicate FIN
    return;
  }
  peer_fin_seen_ = true;
  peer_fin_seq_ = fin_seq;
  rcv_nxt_ = fin_seq + 1;
  send_ack();
  switch (state_) {
    case TcpState::Established:
      state_ = TcpState::CloseWait;
      break;
    case TcpState::FinWait1:
      state_ = TcpState::Closing;
      break;
    case TcpState::FinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

void TcpConnection::enter_time_wait() {
  state_ = TcpState::TimeWait;
  disarm_rto();
  auto self = weak_from_this();
  time_wait_timer_ = stack_.host().network().sim().schedule(
      config_.time_wait, [self]() {
        if (auto conn = self.lock()) conn->finish(CloseReason::Graceful);
      });
}

void TcpConnection::finish(CloseReason reason) {
  if (finished_) return;
  finished_ = true;
  auto keep_alive = shared_from_this();  // release_flow may drop the last ref
  if (state_ == TcpState::SynSent || state_ == TcpState::SynReceived) {
    stack_.count_handshake(/*server=*/state_ != TcpState::SynSent, reason);
  }
  disarm_rto();
  time_wait_timer_.cancel();
  state_ = TcpState::Closed;
  if (on_connect_) {
    auto handler = std::move(on_connect_);
    on_connect_ = nullptr;
    handler(false);
  }
  stack_.release_flow(TcpStack::FlowKey{remote_addr_.value(), remote_port_, local_port_});
  // A finished connection delivers nothing more, so it lets go of its
  // handlers and of what they capture: usually the owner of this
  // connection, which would otherwise keep both alive in a cycle.
  receive_ = nullptr;
  if (on_close_) std::exchange(on_close_, nullptr)(reason);
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(netsim::Host& host, TcpConfig config)
    : host_(host), config_(config) {
  host_.set_protocol_handler(wire::IpProto::Tcp,
                             [this](const wire::Datagram& d) { on_datagram(d); });
}

TcpStack::~TcpStack() { host_.clear_protocol_handler(wire::IpProto::Tcp); }

std::shared_ptr<TcpConnection> TcpStack::connect(wire::Ipv4Address dst,
                                                 std::uint16_t dst_port, bool want_ecn,
                                                 TcpConnection::ConnectHandler handler) {
  std::shared_ptr<TcpConnection> conn(new TcpConnection(*this, config_));
  conn->local_port_ = pick_ephemeral_port();
  register_flow(FlowKey{dst.value(), dst_port, conn->local_port_}, conn);
  conn->start_connect(dst, dst_port, want_ecn, std::move(handler));
  return conn;
}

void TcpStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

void TcpStack::on_datagram(const wire::Datagram& dgram) {
  auto seg = wire::decode_tcp_segment(dgram.ip.src, dgram.ip.dst, dgram.payload);
  if (!seg || !seg->checksum_ok) return;

  const FlowKey key{dgram.ip.src.value(), seg->header.src_port, seg->header.dst_port};
  const auto flow_it = flows_.find(key);
  if (flow_it != flows_.end()) {
    // Hold a reference: handlers may release the flow reentrantly.
    const auto conn = flow_it->second;
    conn->on_segment(dgram, *seg);
    return;
  }

  if (seg->header.flags.syn && !seg->header.flags.ack) {
    const auto listener_it = listeners_.find(seg->header.dst_port);
    if (listener_it != listeners_.end()) {
      std::shared_ptr<TcpConnection> conn(new TcpConnection(*this, config_));
      register_flow(key, conn);
      conn->start_accept(dgram, *seg);
      listener_it->second(conn);
      return;
    }
  }
  if (!seg->header.flags.rst) send_rst_for(dgram, *seg);
}

void TcpStack::send_rst_for(const wire::Datagram& dgram, const wire::TcpSegmentView& seg) {
  wire::TcpHeader header;
  header.src_port = seg.header.dst_port;
  header.dst_port = seg.header.src_port;
  wire::TcpFlags flags;
  flags.rst = true;
  if (seg.header.flags.ack) {
    header.seq = seg.header.ack;
  } else {
    flags.ack = true;
    header.seq = 0;
    header.ack = seg.header.seq + static_cast<std::uint32_t>(seg.payload.size()) +
                 (seg.header.flags.syn ? 1u : 0u) + (seg.header.flags.fin ? 1u : 0u);
  }
  header.flags = flags;
  host_.send_datagram(
      wire::make_tcp_datagram(dgram.ip.dst, dgram.ip.src, header, {}, wire::Ecn::NotEct));
}

void TcpStack::register_flow(const FlowKey& key, std::shared_ptr<TcpConnection> conn) {
  flows_[key] = std::move(conn);
}

void TcpStack::release_flow(const FlowKey& key) { flows_.erase(key); }

void TcpStack::reset_transients() {
  // finish() erases from flows_ via release_flow, so tear down a copy.
  auto flows = flows_;
  for (auto& [key, conn] : flows) conn->finish(CloseReason::LocalAbort);
  flows_.clear();
  next_ephemeral_ = 40000;
}

std::uint16_t TcpStack::pick_ephemeral_port() {
  for (int attempts = 0; attempts < 25000; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65000 ? 40000 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    bool taken = false;
    for (const auto& [key, _] : flows_) {
      if (key.local_port == candidate) {
        taken = true;
        break;
      }
    }
    if (!taken) return candidate;
  }
  throw std::runtime_error("TcpStack: ephemeral ports exhausted");
}

namespace {
// TcpStack::counters_ slots: per role, established then each CloseReason;
// then the two ECN negotiation results; then retransmissions.
constexpr std::size_t kHandshakeOutcomes = 1 + static_cast<std::size_t>(CloseReason::LocalAbort) + 1;
constexpr std::size_t kEcnSlot = 2 * kHandshakeOutcomes;
constexpr std::size_t kRetransmissionSlot = kEcnSlot + 2;
}  // namespace

void TcpStack::count_handshake(bool server, std::optional<CloseReason> failure) {
  const std::size_t outcome = failure ? 1 + static_cast<std::size_t>(*failure) : 0;
  auto& registry = host_.network().obs().registry;
  counters_.get(registry, (server ? kHandshakeOutcomes : 0) + outcome, [&] {
    return registry.counter(
        "tcp_handshakes_total",
        {{"role", server ? "server" : "client"},
         {"outcome", failure ? std::string(to_string(*failure)) : "established"}},
        "TCP handshake outcomes by role");
  }).inc();
}

void TcpStack::count_ecn_negotiation(bool negotiated) {
  auto& registry = host_.network().obs().registry;
  counters_.get(registry, kEcnSlot + (negotiated ? 0 : 1), [&] {
    return registry.counter("tcp_ecn_negotiation_total",
                            {{"result", negotiated ? "negotiated" : "refused"}},
                            "client-side ECN negotiation outcomes");
  }).inc();
}

void TcpStack::count_retransmission() {
  auto& registry = host_.network().obs().registry;
  counters_.get(registry, kRetransmissionSlot, [&] {
    return registry.counter("tcp_retransmissions_total", {}, "TCP segment retransmissions");
  }).inc();
}

}  // namespace ecnprobe::tcp
