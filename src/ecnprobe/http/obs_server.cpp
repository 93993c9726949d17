#include "ecnprobe/http/obs_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/wire/http.hpp"

namespace ecnprobe::http {

namespace {

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  wire::HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.version = "HTTP/1.1";
  response.headers["Content-Type"] = content_type;
  response.headers["Content-Length"] = std::to_string(body.size());
  response.headers["Connection"] = "close";
  response.body = body;
  return response.serialize();
}

std::string render_routed(const ObsHttpServer::Response& routed) {
  wire::HttpResponse response;
  response.status = routed.status;
  response.reason = routed.reason;
  response.version = "HTTP/1.1";
  response.headers["Content-Type"] = routed.content_type;
  response.headers["Content-Length"] = std::to_string(routed.body.size());
  response.headers["Connection"] = "close";
  for (const auto& [name, value] : routed.headers) {
    response.headers[name] = value;
  }
  response.body = routed.body;
  return response.serialize();
}

}  // namespace

ObsHttpServer::ObsHttpServer(Options options, Providers providers)
    : options_(std::move(options)), providers_(std::move(providers)) {}

ObsHttpServer::~ObsHttpServer() { stop(); }

bool ObsHttpServer::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind port " + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 16) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  stop_.store(false);
  obs::EventStream::process().set_enabled(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  running_ = true;
  return true;
}

void ObsHttpServer::stop() {
  if (!running_) return;
  stop_.store(true);
  // Nudge blocked SSE pollers and recv()s: shut the sockets down so the
  // per-client threads observe EOF/error and exit promptly.
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    threads.swap(client_threads_);
  }
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  obs::EventStream::process().set_enabled(false);
  running_ = false;
}

void ObsHttpServer::accept_loop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    sessions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(clients_mutex_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    client_fds_.push_back(fd);
    client_threads_.emplace_back([this, fd] { handle_client(fd); });
  }
}

bool ObsHttpServer::send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  }
  return true;
}

void ObsHttpServer::serve_events(int fd) {
  std::string head =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: text/event-stream\r\n"
      "Cache-Control: no-cache\r\n"
      "Connection: close\r\n\r\n";
  if (!send_all(fd, head)) return;
  auto& stream = obs::EventStream::process();
  std::uint64_t last_id = 0;
  auto idle_since = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    // Poll in short slices so stop() is honoured within ~250 ms even on
    // a silent stream; keep-alive comments go out on the configured
    // cadence so proxies and clients can tell the stream is live.
    const auto events =
        stream.poll_after(last_id, std::chrono::milliseconds(250));
    if (!events.empty()) {
      std::string frame;
      for (const auto& event : events) {
        frame += "id: " + std::to_string(event.id) + "\n";
        frame += "event: " + event.kind + "\n";
        frame += "data: " + event.text + "\n\n";
        last_id = event.id;
      }
      if (!send_all(fd, frame)) return;
      idle_since = std::chrono::steady_clock::now();
      continue;
    }
    if (std::chrono::steady_clock::now() - idle_since >= options_.keepalive) {
      if (!send_all(fd, ": keep-alive\n\n")) return;
      idle_since = std::chrono::steady_clock::now();
    }
  }
}

bool ObsHttpServer::read_request(int fd, wire::HttpParser& parser) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.read_deadline;
  std::size_t pre_head_bytes = 0;
  char buf[4096];
  while (!parser.complete() && !stop_.load()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      rejected_timeout_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, http_response(408, "Request Timeout", "text/plain",
                                 "request not completed within deadline\n"));
      return false;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    // Short poll slices keep stop() responsive even against a client
    // dripping one byte per deadline (the classic slowloris shape).
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<long long>(remaining.count() + 1, 250)));
    if (ready < 0) return false;
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    if (!parser.head_complete()) {
      pre_head_bytes += static_cast<std::size_t>(n);
    }
    if (!parser.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
      rejected_malformed_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, http_response(400, "Bad Request", "text/plain",
                                 parser.error() + "\n"));
      return false;
    }
    if (!parser.head_complete() &&
        pre_head_bytes > options_.max_header_bytes) {
      rejected_oversized_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, http_response(431, "Request Header Fields Too Large",
                                 "text/plain", "request head over limit\n"));
      return false;
    }
    if (parser.head_complete() &&
        parser.body_needed() > options_.max_body_bytes) {
      rejected_oversized_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, http_response(413, "Content Too Large", "text/plain",
                                 "request body over limit\n"));
      return false;
    }
  }
  return parser.complete();
}

void ObsHttpServer::handle_client(int fd) {
  wire::HttpParser parser(wire::HttpParser::Kind::Request);
  if (read_request(fd, parser)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const wire::HttpRequest& request = parser.request();
    const std::string& target = request.target;
    const bool is_get = request.method == "GET";
    if (is_get && target == "/metrics") {
      std::string body = providers_.metrics ? providers_.metrics() : "";
      // The live plane reports its own event-ring losses so a scraper
      // can tell "no events" apart from "events evicted unread".
      body +=
          "# HELP ecnprobe_obs_events_dropped_total Events evicted from the "
          "bounded event ring before delivery.\n"
          "# TYPE ecnprobe_obs_events_dropped_total counter\n"
          "ecnprobe_obs_events_dropped_total " +
          std::to_string(obs::EventStream::process().dropped()) + "\n";
      send_all(fd, http_response(200, "OK", "text/plain; version=0.0.4", body));
    } else if (is_get && target == "/progress") {
      const std::string body =
          providers_.progress ? providers_.progress() : "{}";
      send_all(fd, http_response(200, "OK", "application/json", body));
    } else if (is_get && target == "/events") {
      serve_events(fd);
    } else if (handler_) {
      send_all(fd, render_routed(handler_(request)));
    } else if (!is_get) {
      send_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                                 "only GET is served\n"));
    } else {
      send_all(fd, http_response(404, "Not Found", "text/plain",
                                 "unknown endpoint\n"));
    }
  }
  {
    // Deregister before close: a recycled fd number must not be
    // shutdown() by a later stop().
    std::lock_guard<std::mutex> lock(clients_mutex_);
    std::erase(client_fds_, fd);
  }
  ::close(fd);
}

ObsHttpServer::Stats ObsHttpServer::stats() const {
  Stats stats;
  stats.sessions = sessions_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.rejected_timeout = rejected_timeout_.load(std::memory_order_relaxed);
  stats.rejected_oversized =
      rejected_oversized_.load(std::memory_order_relaxed);
  stats.rejected_malformed = rejected_malformed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ecnprobe::http
