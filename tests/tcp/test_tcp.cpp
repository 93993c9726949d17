#include "ecnprobe/tcp/tcp.hpp"

#include <gtest/gtest.h>

#include <string>

#include "tcp_fixture.hpp"

namespace ecnprobe::tcp {
namespace {

using namespace ecnprobe::util::literals;
using testutil::TcpPair;

TEST(Tcp, HandshakeEstablishesBothEnds) {
  TcpPair pair;
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    accepted = std::move(conn);
  });
  bool connected = false;
  auto conn = pair.client->connect(pair.server_host->address(), 80, false,
                                   [&](bool ok) { connected = ok; });
  pair.sim.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(conn->state(), TcpState::Established);
  ASSERT_TRUE(accepted);
  EXPECT_EQ(accepted->state(), TcpState::Established);
  EXPECT_EQ(accepted->remote_port(), conn->local_port());
}

TEST(Tcp, ConnectRefusedWhenNoListener) {
  TcpPair pair;
  bool connected = true;
  tcp::CloseReason reason{};
  auto conn = pair.client->connect(pair.server_host->address(), 81, false,
                                   [&](bool ok) { connected = ok; });
  conn->set_close_handler([&](CloseReason r) { reason = r; });
  pair.sim.run();
  EXPECT_FALSE(connected);
  EXPECT_EQ(reason, CloseReason::Refused);
}

TEST(Tcp, ConnectTimesOutThroughDeadLink) {
  netsim::LinkParams link;
  TcpPair pair(true, link);
  pair.net.set_link_up(pair.client_id, 0, false);
  bool callback_fired = false;
  bool connected = true;
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [&](bool ok) {
    callback_fired = true;
    connected = ok;
  });
  pair.sim.run();
  EXPECT_TRUE(callback_fired);
  EXPECT_FALSE(connected);
  EXPECT_EQ(conn->state(), TcpState::Closed);
  // SYN + syn_retries retransmissions were attempted.
  EXPECT_EQ(conn->stats().retransmissions, 3u);
}

TEST(Tcp, RequestResponseExchange) {
  TcpPair pair;
  std::string server_got;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    // The connection owns its handler, so a raw pointer cannot dangle; a
    // captured shared_ptr would keep the open connection alive forever.
    TcpConnection* server_conn = conn.get();
    conn->set_receive_handler(
        [server_conn, &server_got](std::span<const std::uint8_t> data) {
          server_got.append(data.begin(), data.end());
          if (server_got == "ping") server_conn->send(std::string_view("pong"));
        });
  });
  std::string client_got;
  auto conn = pair.client->connect(pair.server_host->address(), 80, false,
                                   [](bool) {});
  conn->set_receive_handler([&](std::span<const std::uint8_t> data) {
    client_got.append(data.begin(), data.end());
  });
  conn->send(std::string_view("ping"));
  pair.sim.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST(Tcp, LargeTransferSegmentsAndReassembles) {
  TcpPair pair;
  std::string received;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([&received](std::span<const std::uint8_t> data) {
      received.append(data.begin(), data.end());
    });
  });
  std::string payload;
  for (int i = 0; i < 20000; ++i) payload.push_back(static_cast<char>('a' + i % 26));
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  conn->send(payload);
  pair.sim.run();
  EXPECT_EQ(received, payload);
  EXPECT_GT(conn->stats().segments_sent, 10u);  // was actually segmented
}

TEST(Tcp, TransferSurvivesHeavyLoss) {
  netsim::LinkParams link;
  link.loss_rate = 0.2;
  link.delay = 5_ms;
  TcpPair pair(true, link);
  std::string received;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([&received](std::span<const std::uint8_t> data) {
      received.append(data.begin(), data.end());
    });
  });
  std::string payload(30000, 'x');
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  conn->send(payload);
  pair.sim.run();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_GT(conn->stats().retransmissions, 0u);
}

TEST(Tcp, ReorderingLinkStillDeliversInOrder) {
  netsim::LinkParams link;
  link.delay = 5_ms;
  link.jitter = 20_ms;  // heavy jitter causes reordering
  TcpPair pair(true, link);
  std::string received;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([&received](std::span<const std::uint8_t> data) {
      received.append(data.begin(), data.end());
    });
  });
  std::string payload;
  for (int i = 0; i < 40000; ++i) payload.push_back(static_cast<char>('0' + i % 10));
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  conn->send(payload);
  pair.sim.run();
  EXPECT_EQ(received, payload);  // byte-exact despite reordering
}

TEST(Tcp, GracefulCloseWalksStates) {
  TcpPair pair;
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    accepted = conn;
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  CloseReason client_reason{};
  bool client_closed = false;
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  conn->set_close_handler([&](CloseReason r) {
    client_closed = true;
    client_reason = r;
  });
  pair.sim.run();
  ASSERT_TRUE(accepted);

  CloseReason server_reason{};
  bool server_closed = false;
  accepted->set_close_handler([&](CloseReason r) {
    server_closed = true;
    server_reason = r;
  });

  // Client initiates; server responds by closing its side too.
  conn->close();
  pair.sim.run();
  EXPECT_EQ(accepted->state(), TcpState::CloseWait);
  accepted->close();
  pair.sim.run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_reason, CloseReason::Graceful);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(client_reason, CloseReason::Graceful);
  EXPECT_EQ(conn->state(), TcpState::Closed);
}

TEST(Tcp, AbortSendsRstToPeer) {
  TcpPair pair;
  std::shared_ptr<TcpConnection> accepted;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) { accepted = conn; });
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  pair.sim.run();
  ASSERT_TRUE(accepted);
  CloseReason server_reason{};
  accepted->set_close_handler([&](CloseReason r) { server_reason = r; });
  conn->abort();
  pair.sim.run();
  EXPECT_EQ(server_reason, CloseReason::Reset);
}

TEST(Tcp, DataQueuedBeforeEstablishFlushesAfter) {
  TcpPair pair;
  std::string received;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->set_receive_handler([&received](std::span<const std::uint8_t> data) {
      received.append(data.begin(), data.end());
    });
  });
  auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  conn->send(std::string_view("early"));  // queued while SYN in flight
  pair.sim.run();
  EXPECT_EQ(received, "early");
}

TEST(Tcp, TwoSequentialConnectionsToSameServer) {
  TcpPair pair;
  int accepted_count = 0;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    ++accepted_count;
    conn->set_receive_handler([](std::span<const std::uint8_t>) {});
  });
  auto c1 = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  pair.sim.run();
  c1->close();
  pair.sim.run();
  auto c2 = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
  pair.sim.run();
  EXPECT_EQ(accepted_count, 2);
  EXPECT_NE(c1->local_port(), c2->local_port());
  EXPECT_EQ(c2->state(), TcpState::Established);
}

// Clients hand their endpoint handlers a shared_ptr to their own state,
// which owns the endpoint: a cycle that only the endpoint can break, by
// letting go of its handlers once it delivers nothing more.
TEST(HandlerRelease, FinishedConnectionReleasesHandlersCapturingIt) {
  TcpPair pair;
  std::weak_ptr<TcpConnection> server_side;
  pair.server->listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    server_side = conn;
    // Aborts from inside its own receive handler, like HttpGetClient does
    // on a malformed response.
    conn->set_receive_handler([conn](std::span<const std::uint8_t>) { conn->abort(); });
    conn->set_close_handler([conn](CloseReason) {});
  });
  std::weak_ptr<TcpConnection> client_side;
  CloseReason client_reason{};
  {
    auto conn = pair.client->connect(pair.server_host->address(), 80, false, [](bool) {});
    conn->set_receive_handler([conn](std::span<const std::uint8_t>) {});
    conn->set_close_handler([conn, &client_reason](CloseReason r) { client_reason = r; });
    conn->send(std::string_view("hello"));
    client_side = conn;
  }
  pair.sim.run();
  EXPECT_EQ(client_reason, CloseReason::Reset);
  EXPECT_TRUE(server_side.expired());
  EXPECT_TRUE(client_side.expired());
}

TEST(HandlerRelease, ClosedUdpSocketReleasesHandlerCapturingIt) {
  TcpPair pair;
  std::weak_ptr<netsim::UdpSocket> receiver;
  bool delivered = false;
  {
    auto socket = pair.server_host->open_udp(123);
    // Closes from inside its own handler, like NtpClient on a response.
    socket->set_receive_handler([socket, &delivered](const netsim::UdpDelivery&) {
      delivered = true;
      socket->close();
    });
    receiver = socket;
  }
  const auto sender = pair.client_host->open_udp();
  const std::uint8_t byte = 1;
  sender->send(pair.server_host->address(), 123, std::span(&byte, 1), wire::Ecn::NotEct);
  EXPECT_FALSE(receiver.expired());
  pair.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(receiver.expired());
}

}  // namespace
}  // namespace ecnprobe::tcp
