// RFC 3168 ECN behaviour of the TCP stack: negotiation matrix, packet
// marking rules, and the CE -> ECE -> CWR feedback loop -- the machinery the
// paper's Section 4.3 experiment measures from the outside.
#include <gtest/gtest.h>

#include "ecnprobe/netsim/capture.hpp"
#include "ecnprobe/tcp/tcp.hpp"
#include "tcp_fixture.hpp"

namespace ecnprobe::tcp {
namespace {

using testutil::TcpPair;

// Negotiation matrix: (client requests, server willing) -> negotiated.
struct NegotiationCase {
  bool client_wants;
  bool server_willing;
  bool expect_negotiated;
};

class EcnNegotiation : public ::testing::TestWithParam<NegotiationCase> {};

TEST_P(EcnNegotiation, MatrixOutcome) {
  const auto param = GetParam();
  TcpPair pair(param.server_willing);
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) { accepted = conn; });
  auto conn = pair.client->connect(pair.server_host->address(), 80, param.client_wants,
                                   [](bool) {});
  pair.sim.run();
  ASSERT_TRUE(accepted);
  EXPECT_EQ(conn->ecn_negotiated(), param.expect_negotiated);
  EXPECT_EQ(accepted->ecn_negotiated(), param.expect_negotiated);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, EcnNegotiation,
    ::testing::Values(NegotiationCase{true, true, true},
                      NegotiationCase{true, false, false},
                      NegotiationCase{false, true, false},
                      NegotiationCase{false, false, false}));

TEST(TcpEcn, SynIsEcnSetupAndNotEctMarked) {
  TcpPair pair(true);
  netsim::PacketCapture capture;
  pair.client_host->add_capture(&capture);
  pair.server->listen(80, [](std::shared_ptr<TcpConnection>) {});
  pair.client->connect(pair.server_host->address(), 80, true, [](bool) {});
  pair.sim.run();

  bool saw_syn = false;
  bool saw_syn_ack = false;
  for (const auto& pkt : capture.packets()) {
    const auto seg =
        wire::decode_tcp_segment(pkt.dgram.ip.src, pkt.dgram.ip.dst, pkt.dgram.payload);
    ASSERT_TRUE(seg);
    if (seg->header.flags.syn && !seg->header.flags.ack) {
      saw_syn = true;
      EXPECT_TRUE(seg->header.is_ecn_setup_syn());
      // RFC 3168 6.1.1: the SYN itself must not be ECT-marked.
      EXPECT_EQ(pkt.dgram.ip.ecn, wire::Ecn::NotEct);
    }
    if (seg->header.flags.syn && seg->header.flags.ack) {
      saw_syn_ack = true;
      EXPECT_TRUE(seg->header.is_ecn_setup_syn_ack());
      EXPECT_EQ(pkt.dgram.ip.ecn, wire::Ecn::NotEct);
    }
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_syn_ack);
  pair.client_host->remove_capture(&capture);
}

TEST(TcpEcn, DataIsEct0MarkedOnlyWhenNegotiated) {
  for (const bool negotiate : {true, false}) {
    TcpPair pair(true);
    netsim::PacketCapture capture;
    pair.client_host->add_capture(&capture);
    pair.server->listen(80, [](std::shared_ptr<TcpConnection> conn) {
      conn->set_receive_handler([](std::span<const std::uint8_t>) {});
    });
    auto conn =
        pair.client->connect(pair.server_host->address(), 80, negotiate, [](bool) {});
    conn->send(std::string_view("payload"));
    pair.sim.run();

    bool saw_data = false;
    for (const auto& pkt : capture.packets()) {
      if (pkt.dir != netsim::Direction::Tx) continue;
      const auto seg = wire::decode_tcp_segment(pkt.dgram.ip.src, pkt.dgram.ip.dst,
                                                pkt.dgram.payload);
      ASSERT_TRUE(seg);
      if (!seg->payload.empty()) {
        saw_data = true;
        EXPECT_EQ(pkt.dgram.ip.ecn, negotiate ? wire::Ecn::Ect0 : wire::Ecn::NotEct);
      } else if (!seg->header.flags.syn) {
        // Pure ACKs are never ECT (RFC 3168 6.1.4).
        EXPECT_EQ(pkt.dgram.ip.ecn, wire::Ecn::NotEct);
      }
    }
    EXPECT_TRUE(saw_data);
    pair.client_host->remove_capture(&capture);
  }
}

TEST(TcpEcn, CeMarkTriggersEceThenCwrClearsIt) {
  TcpPair pair(true);
  // Congest the client->server direction: every ECT data segment gets
  // CE-marked (mark_prob 1.0, no drops).
  pair.net.add_ingress_policy(pair.server_id, 0,
                              std::make_shared<netsim::CongestionPolicy>(1.0, 0.0));
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    accepted = conn;
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  auto conn = pair.client->connect(pair.server_host->address(), 80, true, [](bool) {});
  conn->send(std::string_view("first"));
  pair.sim.run();
  ASSERT_TRUE(accepted);
  EXPECT_TRUE(conn->ecn_negotiated());

  // The receiver saw CE and echoed ECE; the sender reacted and sent CWR.
  EXPECT_GT(accepted->stats().ce_received, 0u);
  EXPECT_GT(accepted->stats().ece_acks_sent, 0u);
  EXPECT_GT(conn->stats().ece_acks_received, 0u);
  EXPECT_GT(conn->stats().congestion_events, 0u);

  conn->send(std::string_view("second"));  // carries CWR
  pair.sim.run();
  EXPECT_GT(conn->stats().cwr_sent, 0u);
}

TEST(TcpEcn, NoEceWithoutNegotiation) {
  TcpPair pair(false);  // server refuses ECN
  pair.net.add_ingress_policy(pair.server_id, 0,
                              std::make_shared<netsim::CongestionPolicy>(1.0, 0.0));
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    accepted = conn;
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  auto conn = pair.client->connect(pair.server_host->address(), 80, true, [](bool) {});
  conn->send(std::string_view("data"));
  pair.sim.run();
  ASSERT_TRUE(accepted);
  // Without negotiation the data was not ECT, so it could not be CE-marked,
  // and no ECE may be echoed.
  EXPECT_EQ(accepted->stats().ce_received, 0u);
  EXPECT_EQ(accepted->stats().ece_acks_sent, 0u);
  EXPECT_EQ(conn->stats().ece_acks_received, 0u);
}

TEST(TcpEcn, RetransmissionsAreNotEctMarked) {
  netsim::LinkParams link;
  link.loss_rate = 0.35;
  TcpPair pair(true, link);
  netsim::PacketCapture capture;
  pair.client_host->add_capture(&capture);
  pair.server->listen(80, [](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  auto conn = pair.client->connect(pair.server_host->address(), 80, true, [](bool) {});
  conn->send(std::string(8000, 'r'));
  pair.sim.run();
  ASSERT_GT(conn->stats().retransmissions, 0u);

  // Count data segments per sequence number: any seq seen more than once is
  // a retransmission and must be not-ECT (RFC 3168 6.1.5).
  std::map<std::uint32_t, int> seq_seen;
  for (const auto& pkt : capture.packets()) {
    if (pkt.dir != netsim::Direction::Tx) continue;
    const auto seg = wire::decode_tcp_segment(pkt.dgram.ip.src, pkt.dgram.ip.dst,
                                              pkt.dgram.payload);
    if (!seg || seg->payload.empty()) continue;
    const int count = ++seq_seen[seg->header.seq];
    if (count > 1) {
      EXPECT_EQ(pkt.dgram.ip.ecn, wire::Ecn::NotEct);
    }
  }
  pair.client_host->remove_capture(&capture);
}

TEST(TcpEcn, EcnConnectionCompletesUnderCongestionWithoutLoss) {
  TcpPair pair(true);
  // Mark-only congestion: ECN's whole point -- feedback without drops.
  pair.net.add_ingress_policy(pair.server_id, 0,
                              std::make_shared<netsim::CongestionPolicy>(0.5, 0.0));
  std::string received;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([&received](std::span<const std::uint8_t> data) {
      received.append(data.begin(), data.end());
    });
  });
  auto conn = pair.client->connect(pair.server_host->address(), 80, true, [](bool) {});
  const std::string payload(20000, 'e');
  conn->send(payload);
  pair.sim.run();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(conn->stats().retransmissions, 0u);  // no losses, only marks
  EXPECT_GT(conn->stats().congestion_events, 0u);
}

}  // namespace
}  // namespace ecnprobe::tcp
