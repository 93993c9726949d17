// Fuzzes the live plane's request path over real loopback sockets, with
// small caps: random bytes, a valid GET truncated at every offset and with
// every bit flipped, heads past max_header_bytes, declared bodies past
// max_body_bytes, and a drip slower than read_deadline. Every connection
// must end in a refusal (400, 404, 405, 408, 413, 431), or in a close when
// the client hung up mid-request -- or in a 200 where the mutated bytes are
// still a well-formed GET of a served endpoint. The expected outcome of
// each input comes from the repo's own HttpParser and the server's caps.
// stats() must count every 408/413/431 it sent, and GET /metrics must still
// answer afterwards. Part of test_obs_server, so the sanitizer jobs run it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ecnprobe/http/obs_server.hpp"
#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::http {
namespace {

constexpr int kClosed = 0;    ///< the server closed without answering
constexpr int kNoReply = -1;  ///< the server neither answered nor closed in time

ObsHttpServer::Options small_caps() {
  ObsHttpServer::Options options;
  options.read_deadline = std::chrono::milliseconds(300);
  options.max_header_bytes = 256;
  options.max_body_bytes = 64;
  return options;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until the server closes `fd`, then closes it. Returns the
/// response's status code, kClosed, or kNoReply.
int read_status(int fd) {
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  const bool timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  ::close(fd);
  if (response.empty()) return timed_out ? kNoReply : kClosed;
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) return kNoReply;
  return std::stoi(response.substr(9, 3));
}

/// Runs one connection: sends `bytes` in one write, optionally half-closes,
/// and returns read_status().
int exchange(std::uint16_t port, const std::string& bytes, bool half_close = true) {
  const int fd = connect_loopback(port);
  if (fd < 0) return kNoReply;
  // A refused request may be answered and closed before every byte is
  // sent; the refusal is what counts, so send errors are not failures.
  if (!bytes.empty()) (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  if (half_close) ::shutdown(fd, SHUT_WR);
  return read_status(fd);
}

/// What the server must do with `bytes` arriving in one piece before the
/// client hangs up, following its request path: parse errors are 400, an
/// unfinished head past the cap 431, a declared body past the cap 413, an
/// unfinished request a close, and a complete one is routed.
int expected_status(const std::string& bytes, const ObsHttpServer::Options& options) {
  wire::HttpParser parser(wire::HttpParser::Kind::Request);
  if (!parser.feed(bytes)) return 400;
  if (!parser.head_complete() && bytes.size() > options.max_header_bytes) return 431;
  if (parser.head_complete() && parser.body_needed() > options.max_body_bytes) return 413;
  if (!parser.complete()) return kClosed;
  const auto& request = parser.request();
  if (request.method != "GET") return 405;
  return request.target == "/metrics" || request.target == "/progress" ? 200 : 404;
}

/// A server under fuzz plus a tally of every outcome it produced.
class FuzzedServer {
 public:
  explicit FuzzedServer(ObsHttpServer::Options options)
      : options_(options), server_(options, providers()) {
    std::string error;
    started_ = server_.start(&error);
    EXPECT_TRUE(started_) << error;
  }
  ~FuzzedServer() { server_.stop(); }

  bool started() const { return started_; }

  /// Sends `bytes` and checks the outcome against expected_status().
  void expect_refused_or_served(const std::string& bytes, const std::string& what) {
    const int expected = expected_status(bytes, options_);
    const int got = exchange(server_.port(), bytes);
    record(got);
    EXPECT_EQ(got, expected) << what << ": " << testing::PrintToString(bytes);
  }

  /// Sends `bytes` without hanging up and expects `status`.
  void expect_status_while_open(const std::string& bytes, int status,
                                const std::string& what) {
    const int got = exchange(server_.port(), bytes, /*half_close=*/false);
    record(got);
    EXPECT_EQ(got, status) << what;
  }

  /// Drips `bytes` one at a time, `gap` apart, and returns the outcome.
  int drip(const std::string& bytes, std::chrono::milliseconds gap) {
    const int fd = connect_loopback(server_.port());
    int status = kNoReply;
    if (fd >= 0) {
      for (const char c : bytes) {
        pollfd answered{fd, POLLIN, 0};
        if (::poll(&answered, 1, 0) != 0) break;  // refused: stop sending, read it
        if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;
        std::this_thread::sleep_for(gap);
      }
      status = read_status(fd);
    }
    record(status);
    return status;
  }

  /// The server's counters must account for every refusal it sent, every
  /// connection must have been a session, and /metrics must still answer.
  void expect_accounted_and_alive() {
    const auto stats = server_.stats();
    EXPECT_EQ(stats.rejected_timeout, count(408));
    EXPECT_EQ(stats.rejected_oversized, count(413) + count(431));
    EXPECT_EQ(stats.rejected_malformed, count(400));
    EXPECT_EQ(stats.requests, count(200) + count(404) + count(405));
    EXPECT_EQ(stats.sessions, connections_);
    EXPECT_EQ(count(kNoReply), 0u);
    EXPECT_EQ(exchange(server_.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"), 200);
    EXPECT_EQ(server_.stats().requests, stats.requests + 1);
  }

  std::uint64_t count(int status) const {
    const auto it = outcomes_.find(status);
    return it == outcomes_.end() ? 0 : it->second;
  }

 private:
  static ObsHttpServer::Providers providers() {
    ObsHttpServer::Providers providers;
    providers.metrics = [] {
      return std::string("# TYPE fuzz_total counter\nfuzz_total 1\n");
    };
    providers.progress = [] { return std::string("{}"); };
    return providers;
  }

  void record(int status) {
    ++outcomes_[status];
    ++connections_;
  }

  ObsHttpServer::Options options_;
  ObsHttpServer server_;
  bool started_ = false;
  std::map<int, std::uint64_t> outcomes_;
  std::uint64_t connections_ = 0;
};

class ObsServerFuzz : public ::testing::Test {
 protected:
  void SetUp() override { obs::EventStream::process().clear(); }
  void TearDown() override { obs::EventStream::process().clear(); }
};

const std::string kGet = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
const std::string kPost =
    "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";

TEST_F(ObsServerFuzz, RandomBytesAreRefusedOrClosed) {
  FuzzedServer server(small_caps());
  ASSERT_TRUE(server.started());
  util::Rng rng(0x0b5f1a7e);
  // Half raw bytes, half HTTP-shaped token soup that reaches the head
  // parser's deeper states (request lines, header lines, lengths).
  const std::vector<std::string> tokens = {
      "GET", "POST", "PUT", " ", "/", "metrics", "progress", "events", "HTTP/1.1",
      "HTTP/1.0", "\r\n", "\r\n\r\n", ":", "Host", "x", "Content-Length", "0", "65", "-1",
      "99999999999999999999", "\t", std::string(1, '\0'), "\xff", "%00", "?q=1"};
  for (int i = 0; i < 300; ++i) {
    std::string bytes;
    const auto length = 1 + rng.next_below(400);
    if (i % 2 == 0) {
      for (std::uint64_t b = 0; b < length; ++b) {
        bytes += static_cast<char>(rng.next_below(256));
      }
    } else {
      while (bytes.size() < length) bytes += tokens[rng.next_below(tokens.size())];
    }
    server.expect_refused_or_served(bytes, "random input " + std::to_string(i));
  }
  EXPECT_GT(server.count(400), 0u);
  EXPECT_GT(server.count(431), 0u);
  server.expect_accounted_and_alive();
}

TEST_F(ObsServerFuzz, TruncatedRequestsCloseAndBitFlipsAreRefusedOrServed) {
  FuzzedServer server(small_caps());
  ASSERT_TRUE(server.started());
  for (const std::string& request : {kGet, kPost}) {
    for (std::size_t cut = 0; cut <= request.size(); ++cut) {
      server.expect_refused_or_served(request.substr(0, cut),
                                      "cut at " + std::to_string(cut));
    }
  }
  for (std::size_t byte = 0; byte < kGet.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = kGet;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      server.expect_refused_or_served(
          flipped, "bit " + std::to_string(bit) + " of byte " + std::to_string(byte));
    }
  }
  EXPECT_GE(server.count(405), 1u);  // the whole POST: no handler mounted
  EXPECT_GT(server.count(400), 0u);
  EXPECT_GT(server.count(404), 0u);
  EXPECT_GT(server.count(200), 1u);  // flips inside the Host value still parse
  server.expect_accounted_and_alive();
}

TEST_F(ObsServerFuzz, OversizedHeadsAndBodiesAreRefused) {
  const auto options = small_caps();
  FuzzedServer server(options);
  ASSERT_TRUE(server.started());
  const std::size_t cap = options.max_header_bytes;
  // Heads that never finish: a long target, a long header value, many
  // headers; each just over the cap and far past it.
  for (const std::size_t size : {cap + 1, 2 * cap, 3000 * std::size_t{1}}) {
    server.expect_refused_or_served("GET /" + std::string(size, 'a'), "long target");
    server.expect_refused_or_served(
        "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(size, 'p'), "long header");
    std::string many = "GET /metrics HTTP/1.1\r\n";
    while (many.size() <= size) many += "X-H: v\r\n";
    server.expect_refused_or_served(many, "many headers");
  }
  // Complete heads declaring bodies at, just over and far over the cap.
  for (const std::string length : {"64", "65", "1000", "100000", "18446744073709551615"}) {
    const std::string head =
        "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + "\r\n\r\n";
    server.expect_refused_or_served(head, "declared body " + length);
    server.expect_refused_or_served(head + std::string(64, 'b'), "body " + length);
  }
  // The body cap refuses on the declaration alone, with the client still
  // connected and nothing of the body sent.
  server.expect_status_while_open(
      "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 65\r\n\r\n", 413, "open 413");
  server.expect_status_while_open("GET /" + std::string(cap + 1, 'a'), 431, "open 431");
  EXPECT_GE(server.count(413), 4u);
  EXPECT_GE(server.count(431), 9u);
  server.expect_accounted_and_alive();
}

TEST_F(ObsServerFuzz, DripSlowerThanTheDeadlineIsAnswered408) {
  FuzzedServer server(small_caps());
  ASSERT_TRUE(server.started());
  // 300 ms deadline, one byte per 50 ms: the request line is still
  // unfinished when the deadline passes, so the server answers 408.
  EXPECT_EQ(server.drip("GET /metrics HTTP/1.1\r\n", std::chrono::milliseconds(50)), 408);
  // A request that stalls with the connection open is answered 408 too.
  server.expect_status_while_open("GET /metr", 408, "stalled request line");
  server.expect_status_while_open(kPost.substr(0, kPost.size() - 2), 408, "stalled body");
  EXPECT_EQ(server.count(408), 3u);
  server.expect_accounted_and_alive();
}

}  // namespace
}  // namespace ecnprobe::http
