// ecnprobed: the campaign daemon binary.
//
//   ecnprobed serve --state-dir DIR [--port N] [--concurrency N] ...
//       Runs the daemon until SIGTERM/SIGINT, then drains gracefully:
//       running campaigns checkpoint at their next trace boundary, queued
//       specs stay on disk, and a later `serve` resumes all of them.
//
//   ecnprobed ctl get  http://127.0.0.1:PORT/campaigns [-i]
//   ecnprobed ctl post http://127.0.0.1:PORT/campaigns --body '{"scale":0.05}' [-i]
//       Tiny built-in HTTP client (no curl dependency) for scripts and
//       tests; -i prints "<status> <reason>" before the body. Exit code 0
//       for 2xx/3xx, 1 otherwise.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ecnprobe/daemon/daemon.hpp"
#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/http.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int signo) { g_signal = signo; }

int usage() {
  std::fprintf(
      stderr,
      "usage: ecnprobed serve --state-dir DIR [--addr A] [--port N]\n"
      "                 [--port-file PATH] [--concurrency N] [--queue N]\n"
      "                 [--tenant-max N] [--max-traces N] [--max-workers N]\n"
      "                 [--watchdog-ms N] [--retry-after N]\n"
      "       ecnprobed ctl get|post URL [--body JSON] [-i]\n");
  return 2;
}

bool parse_int(const char* text, long min, long max, long* out) {
  const auto value = ecnprobe::util::parse_integer<long>(text);
  if (!value || *value < min || *value > max) return false;
  *out = *value;
  return true;
}

int cmd_serve(int argc, char** argv) {
  ecnprobe::daemon::CampaignDaemon::Options options;
  std::string port_file;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    long n = 0;
    if (arg == "--state-dir" && value != nullptr) {
      options.state_dir = value;
      ++i;
    } else if (arg == "--addr" && value != nullptr) {
      options.bind_address = value;
      ++i;
    } else if (arg == "--port" && value != nullptr && parse_int(value, 0, 65535, &n)) {
      options.port = static_cast<std::uint16_t>(n);
      ++i;
    } else if (arg == "--port-file" && value != nullptr) {
      port_file = value;
      ++i;
    } else if (arg == "--concurrency" && value != nullptr && parse_int(value, 1, 64, &n)) {
      options.concurrency = static_cast<int>(n);
      ++i;
    } else if (arg == "--queue" && value != nullptr && parse_int(value, 1, 4096, &n)) {
      options.queue_depth = static_cast<int>(n);
      ++i;
    } else if (arg == "--tenant-max" && value != nullptr && parse_int(value, 1, 4096, &n)) {
      options.tenant_max_active = static_cast<int>(n);
      ++i;
    } else if (arg == "--max-traces" && value != nullptr && parse_int(value, 0, 1 << 20, &n)) {
      options.max_traces = static_cast<int>(n);
      ++i;
    } else if (arg == "--max-workers" && value != nullptr && parse_int(value, 1, 256, &n)) {
      options.max_workers = static_cast<int>(n);
      ++i;
    } else if (arg == "--watchdog-ms" && value != nullptr && parse_int(value, 0, 86400000, &n)) {
      options.watchdog = std::chrono::milliseconds(n);
      ++i;
    } else if (arg == "--retry-after" && value != nullptr && parse_int(value, 0, 3600, &n)) {
      options.retry_after_seconds = static_cast<int>(n);
      ++i;
    } else {
      std::fprintf(stderr, "ecnprobed: bad serve argument '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (options.state_dir.empty()) {
    std::fprintf(stderr, "ecnprobed: --state-dir is required\n");
    return usage();
  }

  ecnprobe::daemon::CampaignDaemon daemon(options);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "ecnprobed: start failed: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream os(port_file, std::ios::trunc);
    os << daemon.port() << "\n";
    if (!os.good()) {
      std::fprintf(stderr, "ecnprobed: cannot write %s\n", port_file.c_str());
      daemon.drain();
      return 1;
    }
  }
  std::fprintf(stderr, "ecnprobed: listening on %s:%u, state in %s\n",
               options.bind_address.c_str(), daemon.port(),
               options.state_dir.c_str());

  g_signal = 0;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "ecnprobed: signal %d, draining\n",
               static_cast<int>(g_signal));
  daemon.drain();
  const auto stats = daemon.stats();
  std::fprintf(stderr,
               "ecnprobed: drained (admitted=%llu completed=%llu "
               "cancelled=%llu failed=%llu shed=%llu)\n",
               static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.cancelled),
               static_cast<unsigned long long>(stats.failed),
               static_cast<unsigned long long>(stats.shed_queue_full +
                                               stats.shed_tenant_budget));
  return 0;
}

bool split_url(const std::string& url, std::string* host, std::uint16_t* port,
               std::string* path) {
  const std::string scheme = "http://";
  if (url.compare(0, scheme.size(), scheme) != 0) return false;
  const std::string rest = url.substr(scheme.size());
  const std::size_t slash = rest.find('/');
  const std::string authority =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  *path = slash == std::string::npos ? "/" : rest.substr(slash);
  const std::size_t colon = authority.rfind(':');
  if (colon == std::string::npos) {
    *host = authority;
    *port = 80;
  } else {
    *host = authority.substr(0, colon);
    long n = 0;
    if (!parse_int(authority.c_str() + colon + 1, 1, 65535, &n)) return false;
    *port = static_cast<std::uint16_t>(n);
  }
  return !host->empty();
}

int cmd_ctl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string verb = argv[0];
  const std::string url = argv[1];
  std::string body;
  bool include_status = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--body" && i + 1 < argc) {
      body = argv[++i];
    } else if (arg == "-i") {
      include_status = true;
    } else {
      std::fprintf(stderr, "ecnprobed: bad ctl argument '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (verb != "get" && verb != "post") return usage();

  std::string host;
  std::uint16_t port = 0;
  std::string path;
  if (!split_url(url, &host, &port, &path)) {
    std::fprintf(stderr, "ecnprobed: bad URL '%s' (need http://host:port/path)\n",
                 url.c_str());
    return 2;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("ecnprobed: socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "ecnprobed: ctl supports numeric IPv4 hosts, got '%s'\n",
                 host.c_str());
    ::close(fd);
    return 2;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("ecnprobed: connect");
    ::close(fd);
    return 1;
  }

  ecnprobe::wire::HttpRequest request;
  request.method = verb == "get" ? "GET" : "POST";
  request.target = path;
  request.version = "HTTP/1.1";
  request.headers["Host"] = host;
  request.headers["Connection"] = "close";
  request.body = body;
  const std::string wire_bytes = request.serialize();
  std::size_t sent = 0;
  while (sent < wire_bytes.size()) {
    const ssize_t n = ::send(fd, wire_bytes.data() + sent,
                             wire_bytes.size() - sent, 0);
    if (n <= 0) {
      std::perror("ecnprobed: send");
      ::close(fd);
      return 1;
    }
    sent += static_cast<std::size_t>(n);
  }

  ecnprobe::wire::HttpParser parser(ecnprobe::wire::HttpParser::Kind::Response);
  char buffer[4096];
  while (!parser.complete() && !parser.failed()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      std::perror("ecnprobed: recv");
      ::close(fd);
      return 1;
    }
    if (n == 0) break;
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
  ::close(fd);
  if (!parser.complete()) {
    std::fprintf(stderr, "ecnprobed: bad response: %s\n",
                 parser.failed() ? parser.error().c_str() : "truncated");
    return 1;
  }
  const auto& response = parser.response();
  if (include_status) {
    std::printf("%d %s\n", response.status, response.reason.c_str());
    for (const auto& [key, header_value] : response.headers) {
      std::printf("%s: %s\n", key.c_str(), header_value.c_str());
    }
    std::printf("\n");
  }
  std::fwrite(response.body.data(), 1, response.body.size(), stdout);
  return response.status < 400 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "serve") return cmd_serve(argc - 2, argv + 2);
  if (command == "ctl") return cmd_ctl(argc - 2, argv + 2);
  return usage();
}
