// The live observability plane: a small real (POSIX-socket) HTTP server
// that makes a running campaign scrapable. Not to be confused with
// HttpServerService, which is a *simulated* server inside the world --
// this one binds an actual TCP port on the machine running the campaign.
//
// Read-only by construction: every endpoint renders from thread-safe
// snapshot providers (ParallelCampaign::progress(), the streaming
// merger's metrics snapshot) or from the process event stream, so
// serving never touches worker-owned state.
//
//   GET /metrics   Prometheus text exposition of the campaign-so-far
//   GET /progress  JSON snapshot of campaign progress
//   GET /events    text/event-stream of window rollovers, quarantines,
//                  breaker trips, and checkpoint appends (SSE framing:
//                  id:/event:/data:, ": keep-alive" comments while idle)
//
// Anything else routes through the optional Handler hook, which is how
// ecnprobed mounts its campaign-submission API (POST /campaigns,
// GET /campaigns/<id>/...) on this same listener.
//
// Hardened request path: a connection that does not deliver a complete
// request head within `read_deadline` is answered 408 and closed (a
// slowloris drip cannot pin a serving thread), heads over
// `max_header_bytes` are answered 431, and declared bodies over
// `max_body_bytes` are answered 413 without ever buffering the excess.
//
// Determinism boundary: nothing in the campaign reads back anything this
// server produces; mid-run scrapes observe prefix-merged totals that
// reconcile with (are <= ) the final --metrics-out export.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecnprobe/wire/http.hpp"

namespace ecnprobe::http {

class ObsHttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    /// Idle interval between SSE keep-alive comments.
    std::chrono::milliseconds keepalive{10000};
    /// Total wall-clock allowance for receiving one complete request
    /// (head + declared body). Exceeding it answers 408 Request Timeout.
    std::chrono::milliseconds read_deadline{5000};
    /// Request head cap; exceeding it answers 431 Request Header Fields
    /// Too Large before the head is parsed.
    std::size_t max_header_bytes = 16 * 1024;
    /// Declared request body cap; exceeding it answers 413 Content Too
    /// Large without reading the body in.
    std::size_t max_body_bytes = 256 * 1024;
  };

  /// Snapshot providers, called per request from server threads; they
  /// must be safe to invoke while campaign workers run.
  struct Providers {
    std::function<std::string()> metrics;   ///< Prometheus text
    std::function<std::string()> progress;  ///< JSON object
  };

  /// A routed response built by the Handler hook.
  struct Response {
    int status = 200;
    std::string reason = "OK";
    std::string content_type = "text/plain";
    std::string body;
    /// Extra headers (e.g. {"Retry-After", "2"} on a 429 shed).
    std::vector<std::pair<std::string, std::string>> headers;
  };

  /// Fallback router for requests no built-in endpoint matches (and for
  /// every non-GET request). Runs on a server thread; must be
  /// thread-safe. Absent handler = 404 / 405 as before.
  using Handler = std::function<Response(const wire::HttpRequest&)>;

  /// Self-observation counters (satellite of the live plane): the
  /// serving path counts its own sessions, requests, and bytes.
  struct Stats {
    std::uint64_t sessions = 0;
    std::uint64_t requests = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t rejected_timeout = 0;   ///< 408s (read deadline)
    std::uint64_t rejected_oversized = 0; ///< 431s + 413s (size caps)
    std::uint64_t rejected_malformed = 0; ///< 400s (unparseable requests)
  };

  ObsHttpServer(Options options, Providers providers);
  ~ObsHttpServer();
  ObsHttpServer(const ObsHttpServer&) = delete;
  ObsHttpServer& operator=(const ObsHttpServer&) = delete;

  /// Installs the fallback router. Call before start().
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Binds and starts the accept loop. On failure fills *error and
  /// returns false.
  bool start(std::string* error);
  void stop();
  bool running() const { return running_; }

  /// The bound port (resolves ephemeral port 0 requests).
  std::uint16_t port() const { return port_; }

  Stats stats() const;

 private:
  void accept_loop();
  void handle_client(int fd);
  bool send_all(int fd, const std::string& data);
  void serve_events(int fd);
  /// Receives one request within the hardening envelope. Returns true
  /// with a complete parse, or false after answering 408/413/431/400.
  bool read_request(int fd, wire::HttpParser& parser);

  Options options_;
  Providers providers_;
  Handler handler_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  bool running_ = false;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex clients_mutex_;
  std::vector<int> client_fds_;
  std::vector<std::thread> client_threads_;
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> rejected_timeout_{0};
  std::atomic<std::uint64_t> rejected_oversized_{0};
  std::atomic<std::uint64_t> rejected_malformed_{0};
};

}  // namespace ecnprobe::http
