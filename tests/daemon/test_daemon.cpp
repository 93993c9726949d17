// ecnprobed end to end, in process: spec validation, admission and
// shedding (queue bound, tenant budget), campaign execution through the
// real ParallelCampaign with a journal in the state dir, per-campaign
// metrics/result endpoints, cancel, watchdog, and the drain -> restart ->
// resume cycle with byte-identical results.
#include "ecnprobe/daemon/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ecnprobe/daemon/spec.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::daemon {
namespace {

std::string unique_state_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Tests own their directory: wipe any leftovers from a previous run.
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string wait_for_state(CampaignDaemon& daemon, const std::string& id,
                           const std::string& want,
                           std::chrono::seconds deadline = std::chrono::seconds(60)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  std::string last = "<never seen>";
  while (std::chrono::steady_clock::now() < until) {
    for (const auto& status : daemon.statuses()) {
      if (status.id != id) continue;
      last = status.state;
      if (status.state == want) return want;
      // Terminal states other than the wanted one will never change.
      if (status.state == "done" || status.state == "cancelled" ||
          status.state == "failed") {
        return status.state;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The reference output: the one-worker batch run the daemon's artifacts
/// must match byte for byte.
std::string one_worker_csv(const TenantSpec& spec) {
  const auto resolved = spec.resolve();
  std::ostringstream out;
  measure::write_traces_csv(
      out, scenario::run_campaign(resolved.params, resolved.plan, resolved.probe).traces);
  return out.str();
}

TEST(CampaignSpecJson, RoundTripsAndValidatesLikeTheCli) {
  TenantSpec spec;
  spec.tenant = "team-a";
  spec.scale = 0.05;
  spec.seed = 7;
  spec.traces = 4;
  spec.workers = 3;
  spec.sched = "backoff,pace-rate=50,breaker-failures=3";
  const auto round = TenantSpec::from_json(spec.to_json());
  ASSERT_TRUE(round) << round.error().message;
  EXPECT_EQ(*round, spec);

  // Defaults apply for an empty object.
  const auto defaults = TenantSpec::from_json("{}");
  ASSERT_TRUE(defaults);
  EXPECT_EQ(*defaults, TenantSpec{});

  const char* rejected[] = {
      "",                                     // not JSON
      "[]",                                   // not an object
      "{\"scale\":0.1} trailing",             // trailing garbage
      "{\"falts\":\"none\"}",                 // misspelled key
      "{\"scale\":-1}",                       // bad range
      "{\"scale\":\"big\"}",                  // bad type
      "{\"seed\":1.5}",                       // non-integer
      "{\"workers\":0}",                      // below range
      "{\"tenant\":\"a b\"}",                 // bad charset
      "{\"tenant\":\"a\",\"tenant\":\"b\"}",  // duplicate key
      "{\"faults\":\"bogus-plan\"}",          // sub-spec parser rejects
      "{\"telemetry\":\"nope\"}",
      "{\"timeseries\":\"nope\"}",
      "{\"sched\":\"warp-speed\"}",
  };
  for (const char* text : rejected) {
    const auto parsed = TenantSpec::from_json(text);
    EXPECT_FALSE(parsed) << "accepted: " << text;
    if (!parsed) {
      EXPECT_FALSE(parsed.error().message.empty());
    }
  }
}

TEST(CampaignDaemonTest, AdmitsRunsAndServesByteIdenticalArtifacts) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_basic");
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  ASSERT_NE(daemon.port(), 0);

  TenantSpec spec;
  spec.scale = 0.02;
  spec.traces = 2;
  spec.workers = 2;
  const auto created =
      http_request(daemon.port(), "POST", "/campaigns", spec.to_json());
  EXPECT_EQ(created.find("HTTP/1.1 201"), 0u) << created;
  EXPECT_NE(created.find("\"id\":\"c1\""), std::string::npos) << created;

  ASSERT_EQ(wait_for_state(daemon, "c1", "done"), "done");

  // The daemon's CSV is byte-identical to the sequential reference run.
  const auto result = http_request(daemon.port(), "GET", "/campaigns/c1/result", "");
  EXPECT_EQ(result.find("HTTP/1.1 200"), 0u) << result;
  const auto body_at = result.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(result.substr(body_at + 4), one_worker_csv(spec));
  EXPECT_EQ(read_file(options.state_dir + "/c1.csv"), one_worker_csv(spec));

  // Per-campaign metrics serve the exported Prometheus artifact once done.
  const auto metrics = http_request(daemon.port(), "GET", "/campaigns/c1/metrics", "");
  EXPECT_EQ(metrics.find("HTTP/1.1 200"), 0u) << metrics;
  EXPECT_NE(metrics.find("campaign_traces_total"), std::string::npos) << metrics;

  // Status JSON and daemon-level progress/metrics cover the campaign.
  const auto status = http_request(daemon.port(), "GET", "/campaigns/c1", "");
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  const auto progress = http_request(daemon.port(), "GET", "/progress", "");
  EXPECT_NE(progress.find("\"id\":\"c1\""), std::string::npos) << progress;
  const auto daemon_metrics = http_request(daemon.port(), "GET", "/metrics", "");
  EXPECT_NE(daemon_metrics.find("ecnprobed_admitted_total 1"), std::string::npos)
      << daemon_metrics;

  EXPECT_EQ(daemon.stats().completed, 1u);
  daemon.drain();
  EXPECT_FALSE(daemon.running());
}

TEST(CampaignDaemonTest, InvalidSpecsRejectedWith400) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_invalid");
  options.max_traces = 4;
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const auto bad = http_request(daemon.port(), "POST", "/campaigns",
                                "{\"faults\":\"bogus\"}");
  EXPECT_EQ(bad.find("HTTP/1.1 400"), 0u) << bad;

  // Option values that are not finite or leave their key's range are
  // refused at POST, not admitted and then failed by the run.
  const std::vector<std::string> out_of_range = {
      R"({"telemetry":"sketched,eps=nan"})",
      R"({"telemetry":"sketched,eps=1e-9"})",
      R"({"telemetry":"sketched,seed=-1"})",
      R"({"timeseries":"window-ms=1000,alpha=nan"})",
      R"({"faults":"wan-chaos,corrupt-prob=nan"})",
      R"({"faults":"wan-chaos,corrupt-prob=7"})",
      R"({"faults":"wan-chaos,reorder-window-ms=inf"})",
      R"({"sched":"paper,pace-rate=inf"})",
      R"({"sched":"backoff,factor=inf"})",
  };
  for (const auto& spec : out_of_range) {
    const auto reply = http_request(daemon.port(), "POST", "/campaigns", spec);
    EXPECT_EQ(reply.find("HTTP/1.1 400"), 0u) << spec << ": " << reply;
  }

  // A valid spec over the daemon's per-campaign trace budget is refused
  // at admission, before any resources are committed.
  const auto huge = http_request(daemon.port(), "POST", "/campaigns",
                                 "{\"scale\":0.02,\"traces\":100}");
  EXPECT_EQ(huge.find("HTTP/1.1 400"), 0u) << huge;
  EXPECT_NE(huge.find("budget"), std::string::npos) << huge;

  EXPECT_EQ(daemon.stats().rejected_invalid, 2u + out_of_range.size());
  EXPECT_EQ(daemon.stats().admitted, 0u);
  EXPECT_TRUE(daemon.statuses().empty());
  daemon.drain();
}

TEST(CampaignDaemonTest, OverloadShedsWith429AndRetryAfter) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_overload");
  options.concurrency = 1;
  options.queue_depth = 1;
  options.tenant_max_active = 8;
  options.retry_after_seconds = 3;
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Enough work that the first campaign is still running while we pile on.
  const std::string spec = "{\"scale\":0.05,\"traces\":40,\"workers\":2}";
  const auto first = http_request(daemon.port(), "POST", "/campaigns", spec);
  EXPECT_EQ(first.find("HTTP/1.1 201"), 0u) << first;

  // Fill the queue (runner may have already claimed c1, so c2 waits), then
  // overflow it. Admissions beyond the bound shed instead of queueing.
  int shed = 0;
  std::string last_shed;
  for (int i = 0; i < 4; ++i) {
    const auto response = http_request(daemon.port(), "POST", "/campaigns", spec);
    if (response.find("HTTP/1.1 429") == 0) {
      ++shed;
      last_shed = response;
    } else {
      EXPECT_EQ(response.find("HTTP/1.1 201"), 0u) << response;
    }
  }
  EXPECT_GE(shed, 2) << "queue bound did not shed";
  EXPECT_NE(last_shed.find("Retry-After: 3"), std::string::npos) << last_shed;
  EXPECT_NE(last_shed.find("queue full"), std::string::npos) << last_shed;
  EXPECT_GE(daemon.stats().shed_queue_full, 2u);

  // Drain completes with every admitted campaign checkpointed or finished:
  // nothing admitted may be lost or left in a running state.
  daemon.drain();
  for (const auto& status : daemon.statuses()) {
    EXPECT_TRUE(status.state == "done" || status.state == "queued")
        << status.id << " left as " << status.state;
    if (status.state == "queued") {
      // Checkpointed on disk: the spec survives for the next start().
      EXPECT_FALSE(
          read_file(options.state_dir + "/" + status.id + ".spec.json").empty());
    }
  }
}

TEST(CampaignDaemonTest, TenantBudgetShedsButOtherTenantsAdmit) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_tenant");
  options.concurrency = 1;
  options.queue_depth = 8;
  options.tenant_max_active = 1;
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const auto a1 = http_request(daemon.port(), "POST", "/campaigns",
                               "{\"tenant\":\"alpha\",\"scale\":0.05,\"traces\":40}");
  EXPECT_EQ(a1.find("HTTP/1.1 201"), 0u) << a1;
  const auto a2 = http_request(daemon.port(), "POST", "/campaigns",
                               "{\"tenant\":\"alpha\",\"scale\":0.05,\"traces\":40}");
  EXPECT_EQ(a2.find("HTTP/1.1 429"), 0u) << a2;
  // The body is JSON, so the inner quotes around the tenant arrive escaped.
  EXPECT_NE(a2.find("tenant \\\"alpha\\\""), std::string::npos) << a2;
  EXPECT_NE(a2.find("Retry-After:"), std::string::npos) << a2;
  // One tenant exhausting its budget must not starve another.
  const auto b1 = http_request(daemon.port(), "POST", "/campaigns",
                               "{\"tenant\":\"beta\",\"scale\":0.02,\"traces\":2}");
  EXPECT_EQ(b1.find("HTTP/1.1 201"), 0u) << b1;
  EXPECT_EQ(daemon.stats().shed_tenant_budget, 1u);
  daemon.drain();
}

TEST(CampaignDaemonTest, CancelQueuedCampaignImmediately) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_cancel");
  options.concurrency = 1;
  options.queue_depth = 4;
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // c1 occupies the single runner; c2 waits in the queue.
  const auto c1 = http_request(daemon.port(), "POST", "/campaigns",
                               "{\"scale\":0.05,\"traces\":40,\"workers\":2}");
  EXPECT_EQ(c1.find("HTTP/1.1 201"), 0u);
  const auto c2 = http_request(daemon.port(), "POST", "/campaigns",
                               "{\"scale\":0.05,\"traces\":40}");
  EXPECT_EQ(c2.find("HTTP/1.1 201"), 0u);

  const auto cancelled =
      http_request(daemon.port(), "POST", "/campaigns/c2/cancel", "");
  EXPECT_EQ(cancelled.find("HTTP/1.1 202"), 0u) << cancelled;
  EXPECT_EQ(wait_for_state(daemon, "c2", "cancelled"), "cancelled");
  // The marker persists the decision: a restart must not resurrect c2.
  EXPECT_FALSE(read_file(options.state_dir + "/c2.cancelled").empty());

  const auto missing =
      http_request(daemon.port(), "POST", "/campaigns/c9/cancel", "");
  EXPECT_EQ(missing.find("HTTP/1.1 404"), 0u) << missing;
  daemon.drain();
}

TEST(CampaignDaemonTest, WatchdogCancelsRunawayCampaign) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_watchdog");
  options.concurrency = 1;
  options.watchdog = std::chrono::milliseconds(1);
  CampaignDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Big enough that the 1 ms deadline is long past at the first watchdog
  // tick; the cancel lands at the next trace boundary.
  const auto created = http_request(daemon.port(), "POST", "/campaigns",
                                    "{\"scale\":0.05,\"traces\":200}");
  EXPECT_EQ(created.find("HTTP/1.1 201"), 0u) << created;
  ASSERT_EQ(wait_for_state(daemon, "c1", "cancelled"), "cancelled");

  const auto status = http_request(daemon.port(), "GET", "/campaigns/c1", "");
  EXPECT_NE(status.find("campaign-cancelled"), std::string::npos) << status;
  EXPECT_NE(status.find("watchdog"), std::string::npos) << status;
  EXPECT_EQ(daemon.stats().cancelled, 1u);
  daemon.drain();
}

TEST(CampaignDaemonTest, DrainCheckpointsAndRestartResumesByteIdentically) {
  CampaignDaemon::Options options;
  options.state_dir = unique_state_dir("daemon_drain");
  options.concurrency = 1;

  TenantSpec spec;
  spec.scale = 0.05;
  spec.traces = 40;
  spec.workers = 2;

  {
    CampaignDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const auto created =
        http_request(daemon.port(), "POST", "/campaigns", spec.to_json());
    EXPECT_EQ(created.find("HTTP/1.1 201"), 0u) << created;
    // Let it make some progress, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    daemon.drain();
    // New admissions are refused while draining/stopped state is on disk;
    // the drained campaign is either finished or checkpointed as queued.
    bool seen = false;
    for (const auto& status : daemon.statuses()) {
      if (status.id != "c1") continue;
      seen = true;
      EXPECT_TRUE(status.state == "queued" || status.state == "done")
          << status.state;
    }
    EXPECT_TRUE(seen);
  }

  // Restart on the same state dir: the rescan re-enqueues c1, its journal
  // replays, and the finished artifacts match the sequential reference.
  CampaignDaemon resumed(options);
  std::string error;
  ASSERT_TRUE(resumed.start(&error)) << error;
  ASSERT_EQ(wait_for_state(resumed, "c1", "done"), "done");
  EXPECT_EQ(read_file(options.state_dir + "/c1.csv"), one_worker_csv(spec));
  resumed.drain();

  // A third start sees the done marker and does not re-run anything.
  CampaignDaemon third(options);
  ASSERT_TRUE(third.start(&error)) << error;
  const auto statuses = third.statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, "done");
  EXPECT_EQ(statuses[0].completed_traces, statuses[0].total_traces);
  third.drain();
}

}  // namespace
}  // namespace ecnprobe::daemon
