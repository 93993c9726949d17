#include "ecnprobe/daemon/daemon.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/event_stream.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/json.hpp"

namespace ecnprobe::daemon {

namespace {

using util::json_quote;

constexpr const char* kQueued = "queued";
constexpr const char* kRunning = "running";
constexpr const char* kDone = "done";
constexpr const char* kCancelled = "cancelled";
constexpr const char* kFailed = "failed";

http::ObsHttpServer::Response json_response(int status, const char* reason,
                                            std::string body) {
  http::ObsHttpServer::Response response;
  response.status = status;
  response.reason = reason;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

http::ObsHttpServer::Response error_response(int status, const char* reason,
                                             const std::string& message) {
  return json_response(status, reason,
                       "{\"error\":" + json_quote(message) + "}\n");
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

/// Write-then-rename: the file either exists complete or not at all, so a
/// crash mid-admission cannot leave a half-written spec that a restart
/// would refuse (or worse, misparse).
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) return false;
    os << content;
    os.flush();
    if (!os.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void emit_event(const char* kind, const std::string& text) {
  auto& stream = obs::EventStream::process();
  if (stream.enabled()) stream.emit(kind, text);
}

}  // namespace

struct CampaignDaemon::Campaign {
  std::string id;
  std::uint64_t seq = 0;
  TenantSpec spec;
  std::string state = kQueued;
  std::string detail;
  int total_traces = 0;
  /// True once cancel (watchdog or API) was requested; distinguishes a
  /// halt that means "cancelled" from a halt that means "draining".
  bool cancel_requested = false;
  /// Set while a runner executes this campaign; the watchdog and the
  /// cancel/drain paths call request_halt() through it.
  std::shared_ptr<measure::ParallelCampaign> exec;
  std::chrono::steady_clock::time_point started_at{};
};

CampaignDaemon::CampaignDaemon(Options options) : options_(std::move(options)) {
  if (options_.queue_depth < 1) options_.queue_depth = 1;
  if (options_.concurrency < 1) options_.concurrency = 1;
  if (options_.tenant_max_active < 1) options_.tenant_max_active = 1;
  if (options_.max_workers < 1) options_.max_workers = 1;
}

CampaignDaemon::~CampaignDaemon() { drain(); }

std::string CampaignDaemon::spec_path(const std::string& id) const {
  return options_.state_dir + "/" + id + ".spec.json";
}

std::string CampaignDaemon::marker_path(const std::string& id,
                                        const char* kind) const {
  return options_.state_dir + "/" + id + "." + kind;
}

bool CampaignDaemon::rescan_state_dir(std::string* error) {
  DIR* dir = ::opendir(options_.state_dir.c_str());
  if (dir == nullptr) {
    *error = "cannot open state dir " + options_.state_dir + ": " +
             std::strerror(errno);
    return false;
  }
  std::vector<std::string> ids;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    const std::string suffix = ".spec.json";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    ids.push_back(name.substr(0, name.size() - suffix.size()));
  }
  ::closedir(dir);
  std::vector<std::shared_ptr<Campaign>> recovered;
  for (const auto& id : ids) {
    std::string text;
    if (!read_file(spec_path(id), &text)) continue;
    auto campaign = std::make_shared<Campaign>();
    campaign->id = id;
    if (id.size() > 1 && id[0] == 'c') {
      campaign->seq = std::strtoull(id.c_str() + 1, nullptr, 10);
    }
    const auto spec = TenantSpec::from_json(text);
    if (!spec) {
      // A spec this daemon wrote cannot be invalid unless the file was
      // damaged; quarantine it rather than crash-loop on every restart.
      campaign->state = kFailed;
      campaign->detail = "persisted spec unreadable: " + spec.error().message;
      write_file_atomic(marker_path(id, kFailed), campaign->detail + "\n");
      campaigns_.emplace(id, std::move(campaign));
      continue;
    }
    campaign->spec = *spec;
    campaign->total_traces = spec->resolve().plan.total_traces();
    std::string marker;
    if (read_file(marker_path(id, kDone), &marker)) {
      campaign->state = kDone;
    } else if (read_file(marker_path(id, kCancelled), &marker)) {
      campaign->state = kCancelled;
      campaign->detail = marker;
      while (!campaign->detail.empty() && campaign->detail.back() == '\n') {
        campaign->detail.pop_back();
      }
    } else if (read_file(marker_path(id, kFailed), &marker)) {
      campaign->state = kFailed;
      campaign->detail = marker;
      while (!campaign->detail.empty() && campaign->detail.back() == '\n') {
        campaign->detail.pop_back();
      }
    } else {
      campaign->state = kQueued;
    }
    next_seq_ = std::max(next_seq_, campaign->seq + 1);
    recovered.push_back(campaign);
    campaigns_.emplace(id, std::move(campaign));
  }
  // Unfinished campaigns resume in admission order; their journals replay
  // whatever completed before the crash, so the final artifacts are
  // byte-identical to a never-interrupted run.
  std::sort(recovered.begin(), recovered.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  for (auto& campaign : recovered) {
    if (campaign->state == kQueued) queue_.push_back(campaign);
  }
  return true;
}

bool CampaignDaemon::start(std::string* error) {
  if (started_) return true;
  if (options_.state_dir.empty()) {
    if (error != nullptr) *error = "state_dir is required";
    return false;
  }
  if (::mkdir(options_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cannot create state dir " + options_.state_dir + ": " +
               std::strerror(errno);
    }
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = false;
    std::string scan_error;
    if (!rescan_state_dir(&scan_error)) {
      if (error != nullptr) *error = scan_error;
      return false;
    }
  }
  http::ObsHttpServer::Options server_options;
  server_options.bind_address = options_.bind_address;
  server_options.port = options_.port;
  server_options.read_deadline = options_.read_deadline;
  server_options.max_body_bytes = options_.max_body_bytes;
  http::ObsHttpServer::Providers providers;
  providers.metrics = [this] { return daemon_metrics_text(); };
  providers.progress = [this] { return daemon_progress_json(); };
  server_ = std::make_unique<http::ObsHttpServer>(server_options,
                                                  std::move(providers));
  server_->set_handler(
      [this](const wire::HttpRequest& request) { return handle(request); });
  if (!server_->start(error)) {
    server_.reset();
    return false;
  }
  for (int i = 0; i < options_.concurrency; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  started_ = true;
  return true;
}

void CampaignDaemon::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && runners_.empty()) return;
    draining_ = true;
    // Running campaigns stop at their next trace boundary; every trace
    // that finished is already in its journal (write-ahead), so nothing
    // admitted is lost -- it is checkpointed or done.
    for (const auto& [id, campaign] : campaigns_) {
      if (campaign->exec) campaign->exec->request_halt();
    }
    cv_.notify_all();
  }
  for (auto& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
  runners_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  if (server_) server_->stop();
  started_ = false;
}

void CampaignDaemon::runner_loop() {
  for (;;) {
    std::shared_ptr<Campaign> campaign;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (draining_) return;  // queued specs stay on disk for the next start
      campaign = queue_.front();
      queue_.pop_front();
      campaign->state = kRunning;
      campaign->started_at = std::chrono::steady_clock::now();
    }
    run_campaign(campaign);
  }
}

void CampaignDaemon::watchdog_loop() {
  if (options_.watchdog.count() <= 0) return;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return draining_; })) {
        return;
      }
      const auto now = std::chrono::steady_clock::now();
      for (const auto& [id, campaign] : campaigns_) {
        if (!campaign->exec || campaign->cancel_requested) continue;
        if (now - campaign->started_at < options_.watchdog) continue;
        // Runaway tenant: cancel cooperatively. The halt lands at the
        // next trace-claim boundary, so the journal stays consistent.
        campaign->cancel_requested = true;
        campaign->detail = "campaign-cancelled: watchdog deadline (" +
                           std::to_string(options_.watchdog.count()) +
                           " ms) exceeded";
        campaign->exec->request_halt();
        emit_event("campaign-cancelled",
                   "id=" + id + " tenant=" + campaign->spec.tenant +
                       " reason=watchdog-deadline");
      }
    }
  }
}

void CampaignDaemon::run_campaign(const std::shared_ptr<Campaign>& campaign) {
  const TenantSpec& spec = campaign->spec;
  // The world, plan and probe discipline `ecnprobe campaign` resolves from
  // the same keys as flags -- the byte-identity of daemon and CLI
  // artifacts rests on this one resolution. The spec passed from_json at
  // admission or rescan, so it resolves.
  const auto resolved = spec.resolve();
  const auto& params = resolved.params;
  const auto& plan = resolved.plan;

  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    campaign->state = kFailed;
    campaign->detail = why;
    campaign->exec.reset();
    write_file_atomic(marker_path(campaign->id, kFailed), why + "\n");
    failed_.fetch_add(1, std::memory_order_relaxed);
    emit_event("campaign-failed", "id=" + campaign->id + " error=" + why);
  };

  measure::CampaignJournal journal;
  std::string journal_error;
  const std::string journal_path =
      options_.state_dir + "/" + campaign->id + ".journal";
  if (!journal.open(journal_path, scenario::journal_meta(params, plan), &journal_error)) {
    fail("journal: " + journal_error);
    return;
  }

  const int workers = std::min(spec.workers, options_.max_workers);
  auto exec_options = scenario::campaign_options(params, resolved.probe, workers);
  // A fault plan's crash-after is the batch tools' simulated kill; a
  // daemon campaign always runs until done, cancelled or drained.
  exec_options.halt_after_traces = 0;
  auto exec = std::make_shared<measure::ParallelCampaign>(
      scenario::world_shard_factory(params), exec_options);
  exec->set_journal(&journal);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    campaign->exec = exec;
    // A drain or cancel that raced campaign startup must still land.
    if (draining_ || campaign->cancel_requested) exec->request_halt();
  }
  emit_event("campaign-started",
             "id=" + campaign->id + " tenant=" + spec.tenant +
                 " traces=" + std::to_string(plan.total_traces()));

  std::vector<measure::Trace> traces;
  std::string run_error;
  try {
    traces = exec->run(plan);
  } catch (const std::exception& e) {
    run_error = e.what();
  }

  if (!run_error.empty()) {
    fail(run_error);
    return;
  }

  bool was_cancelled = false;
  bool was_drained = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    was_cancelled = campaign->cancel_requested;
    was_drained = !was_cancelled && exec->halt_requested();
  }
  if (was_cancelled) {
    std::lock_guard<std::mutex> lock(mutex_);
    campaign->state = kCancelled;
    if (campaign->detail.empty()) campaign->detail = "campaign-cancelled";
    campaign->exec.reset();
    write_file_atomic(marker_path(campaign->id, kCancelled),
                      campaign->detail + "\n");
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (was_drained) {
    // Shutdown drain: everything that ran is journaled; the campaign goes
    // back to queued on disk and the next start() resumes it.
    std::lock_guard<std::mutex> lock(mutex_);
    campaign->state = kQueued;
    campaign->exec.reset();
    emit_event("campaign-drained",
               "id=" + campaign->id +
                   " checkpointed=" + std::to_string(journal.entries().size()));
    return;
  }

  // Completion artifacts, bit-for-bit what the batch CLI writes for the
  // same spec: traces CSV, metrics JSON (runtime=null -- the runtime
  // section is wall-clock noise and would break the equality contract)
  // plus its Prometheus sibling. The .done marker lands last, so a crash
  // between artifact writes re-runs the campaign from its journal and
  // deterministically rewrites the same bytes.
  const std::string base = options_.state_dir + "/" + campaign->id;
  {
    std::ofstream csv(base + ".csv", std::ios::binary | std::ios::trunc);
    if (!csv.is_open()) {
      fail("cannot write " + base + ".csv");
      return;
    }
    measure::write_traces_csv(csv, traces);
    csv.flush();
    if (!csv.good()) {
      fail("cannot write " + base + ".csv");
      return;
    }
  }
  const auto& telemetry_agg = exec->telemetry();
  if (!obs::write_metrics_files(base + ".metrics.json", exec->metrics(), nullptr,
                                telemetry_agg.active() ? &telemetry_agg
                                                       : nullptr)) {
    fail("cannot write " + base + ".metrics.json");
    return;
  }
  if (!write_file_atomic(marker_path(campaign->id, kDone), "done\n")) {
    fail("cannot write completion marker");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    campaign->state = kDone;
    campaign->exec.reset();
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  emit_event("campaign-done",
             "id=" + campaign->id + " traces=" + std::to_string(traces.size()));
}

http::ObsHttpServer::Response CampaignDaemon::admit(const std::string& body) {
  const auto spec = TenantSpec::from_json(body);
  if (!spec) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return error_response(400, "Bad Request", spec.error().message);
  }
  const auto plan = spec->resolve().plan;
  if (options_.max_traces > 0 && plan.total_traces() > options_.max_traces) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return error_response(
        400, "Bad Request",
        "plan has " + std::to_string(plan.total_traces()) +
            " traces, over this daemon's per-campaign budget of " +
            std::to_string(options_.max_traces));
  }
  std::shared_ptr<Campaign> campaign;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      return error_response(503, "Service Unavailable",
                            "daemon is draining; not admitting campaigns");
    }
    if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      auto response = error_response(
          429, "Too Many Requests",
          "admission queue full (" + std::to_string(options_.queue_depth) +
              " campaigns waiting); retry later");
      response.headers.push_back(
          {"Retry-After", std::to_string(options_.retry_after_seconds)});
      return response;
    }
    int tenant_active = 0;
    for (const auto& [id, existing] : campaigns_) {
      if (existing->spec.tenant == spec->tenant &&
          (existing->state == kQueued || existing->state == kRunning)) {
        ++tenant_active;
      }
    }
    if (tenant_active >= options_.tenant_max_active) {
      shed_tenant_budget_.fetch_add(1, std::memory_order_relaxed);
      auto response = error_response(
          429, "Too Many Requests",
          "tenant \"" + spec->tenant + "\" already has " +
              std::to_string(tenant_active) +
              " active campaigns (budget: " +
              std::to_string(options_.tenant_max_active) + "); retry later");
      response.headers.push_back(
          {"Retry-After", std::to_string(options_.retry_after_seconds)});
      return response;
    }
    campaign = std::make_shared<Campaign>();
    campaign->seq = next_seq_++;
    campaign->id = "c" + std::to_string(campaign->seq);
    campaign->spec = *spec;
    campaign->total_traces = plan.total_traces();
    // Persist before acknowledging: once the 201 is on the wire, the
    // campaign survives any crash of this process.
    if (!write_file_atomic(spec_path(campaign->id), spec->to_json() + "\n")) {
      --next_seq_;
      return error_response(500, "Internal Server Error",
                            "cannot persist campaign spec");
    }
    campaigns_.emplace(campaign->id, campaign);
    queue_.push_back(campaign);
    // notify_all: the watchdog waits on cv_ too, and a notify_one that woke
    // it instead of a runner would leave the campaign queued for good.
    cv_.notify_all();
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  emit_event("admission", "id=" + campaign->id + " tenant=" + spec->tenant +
                              " traces=" +
                              std::to_string(campaign->total_traces));
  return json_response(
      201, "Created",
      "{\"id\":" + json_quote(campaign->id) + ",\"state\":\"queued\"" +
          ",\"total_traces\":" + std::to_string(campaign->total_traces) +
          "}\n");
}

http::ObsHttpServer::Response CampaignDaemon::campaign_status(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    return error_response(404, "Not Found", "no campaign " + id);
  }
  const auto& campaign = it->second;
  const int completed = campaign->exec ? campaign->exec->traces_completed()
                        : campaign->state == kDone ? campaign->total_traces
                                                   : 0;
  return json_response(
      200, "OK",
      "{\"id\":" + json_quote(campaign->id) +
          ",\"tenant\":" + json_quote(campaign->spec.tenant) +
          ",\"state\":" + json_quote(campaign->state) +
          ",\"detail\":" + json_quote(campaign->detail) +
          ",\"total_traces\":" + std::to_string(campaign->total_traces) +
          ",\"completed_traces\":" + std::to_string(completed) + "}\n");
}

http::ObsHttpServer::Response CampaignDaemon::campaign_metrics(
    const std::string& id) {
  std::shared_ptr<measure::ParallelCampaign> exec;
  std::string state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = campaigns_.find(id);
    if (it == campaigns_.end()) {
      return error_response(404, "Not Found", "no campaign " + id);
    }
    exec = it->second->exec;
    state = it->second->state;
  }
  http::ObsHttpServer::Response response;
  response.content_type = "text/plain; version=0.0.4";
  if (exec) {
    // Live: the executor's prefix-merged snapshot; every counter is <=
    // its final value and reconciles with the exported .prom below.
    const auto snap = exec->metrics_snapshot();
    response.body =
        obs::to_prometheus(snap.metrics) + obs::to_prometheus(snap.timeseries);
    return response;
  }
  if (state == kDone) {
    if (!read_file(options_.state_dir + "/" + id + ".metrics.prom",
                   &response.body)) {
      return error_response(500, "Internal Server Error",
                            "metrics artifact missing for " + id);
    }
    return response;
  }
  response.body = "# campaign " + id + " is " + state + "; no samples\n";
  return response;
}

http::ObsHttpServer::Response CampaignDaemon::campaign_result(
    const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = campaigns_.find(id);
    if (it == campaigns_.end()) {
      return error_response(404, "Not Found", "no campaign " + id);
    }
    if (it->second->state != kDone) {
      return error_response(409, "Conflict",
                            "campaign " + id + " is " + it->second->state);
    }
  }
  http::ObsHttpServer::Response response;
  response.content_type = "text/csv";
  if (!read_file(options_.state_dir + "/" + id + ".csv", &response.body)) {
    return error_response(500, "Internal Server Error",
                          "result artifact missing for " + id);
  }
  return response;
}

http::ObsHttpServer::Response CampaignDaemon::campaign_cancel(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    return error_response(404, "Not Found", "no campaign " + id);
  }
  auto& campaign = it->second;
  if (campaign->state == kDone || campaign->state == kCancelled ||
      campaign->state == kFailed) {
    return error_response(409, "Conflict",
                          "campaign " + id + " is already " + campaign->state);
  }
  campaign->cancel_requested = true;
  if (campaign->detail.empty()) {
    campaign->detail = "campaign-cancelled: by request";
  }
  if (campaign->exec) {
    campaign->exec->request_halt();
  } else {
    // Still queued: take it out of the queue and mark it immediately.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), campaign),
                 queue_.end());
    campaign->state = kCancelled;
    write_file_atomic(marker_path(id, kCancelled), campaign->detail + "\n");
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  emit_event("campaign-cancelled",
             "id=" + id + " tenant=" + campaign->spec.tenant + " reason=api");
  return json_response(202, "Accepted",
                       "{\"id\":" + json_quote(id) +
                           ",\"state\":\"cancelling\"}\n");
}

http::ObsHttpServer::Response CampaignDaemon::handle(
    const wire::HttpRequest& request) {
  const std::string& target = request.target;
  if (target == "/campaigns") {
    if (request.method == "POST") return admit(request.body);
    if (request.method == "GET") {
      std::string body = "{\"campaigns\":[";
      bool first = true;
      for (const auto& status : statuses()) {
        if (!first) body.push_back(',');
        first = false;
        body += "{\"id\":" + json_quote(status.id) +
                ",\"tenant\":" + json_quote(status.tenant) +
                ",\"state\":" + json_quote(status.state) +
                ",\"total_traces\":" + std::to_string(status.total_traces) +
                ",\"completed_traces\":" +
                std::to_string(status.completed_traces) + "}";
      }
      body += "]}\n";
      return json_response(200, "OK", std::move(body));
    }
    return error_response(405, "Method Not Allowed",
                          "use GET or POST on /campaigns");
  }
  const std::string prefix = "/campaigns/";
  if (target.compare(0, prefix.size(), prefix) == 0) {
    std::string rest = target.substr(prefix.size());
    std::string action;
    const std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      action = rest.substr(slash + 1);
      rest = rest.substr(0, slash);
    }
    if (rest.empty()) {
      return error_response(404, "Not Found", "missing campaign id");
    }
    if (action.empty()) {
      if (request.method != "GET") {
        return error_response(405, "Method Not Allowed", "use GET");
      }
      return campaign_status(rest);
    }
    if (action == "metrics" && request.method == "GET") {
      return campaign_metrics(rest);
    }
    if (action == "result" && request.method == "GET") {
      return campaign_result(rest);
    }
    if (action == "cancel" && request.method == "POST") {
      return campaign_cancel(rest);
    }
    return error_response(404, "Not Found",
                          "unknown campaign endpoint /" + action);
  }
  return error_response(404, "Not Found", "unknown endpoint");
}

std::vector<CampaignDaemon::Status> CampaignDaemon::statuses() const {
  std::vector<std::shared_ptr<Campaign>> ordered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, campaign] : campaigns_) ordered.push_back(campaign);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  std::vector<Status> out;
  out.reserve(ordered.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& campaign : ordered) {
    Status status;
    status.id = campaign->id;
    status.tenant = campaign->spec.tenant;
    status.state = campaign->state;
    status.detail = campaign->detail;
    status.total_traces = campaign->total_traces;
    status.completed_traces = campaign->exec ? campaign->exec->traces_completed()
                              : campaign->state == kDone ? campaign->total_traces
                                                         : 0;
    out.push_back(std::move(status));
  }
  return out;
}

CampaignDaemon::Stats CampaignDaemon::stats() const {
  Stats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  stats.shed_tenant_budget =
      shed_tenant_budget_.load(std::memory_order_relaxed);
  stats.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  return stats;
}

std::string CampaignDaemon::daemon_metrics_text() const {
  std::size_t queued = 0;
  std::size_t running = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queued = queue_.size();
    for (const auto& [id, campaign] : campaigns_) {
      if (campaign->state == kRunning) ++running;
    }
  }
  const Stats s = stats();
  std::string out;
  auto counter = [&out](const char* name, const char* help,
                        std::uint64_t value, const char* labels = "") {
    out += "# HELP " + std::string(name) + " " + help + "\n";
    out += "# TYPE " + std::string(name) + " counter\n";
    out += std::string(name) + labels + " " + std::to_string(value) + "\n";
  };
  counter("ecnprobed_admitted_total", "campaigns admitted", s.admitted);
  out += "# HELP ecnprobed_shed_total admissions shed with 429\n";
  out += "# TYPE ecnprobed_shed_total counter\n";
  out += "ecnprobed_shed_total{reason=\"queue-full\"} " +
         std::to_string(s.shed_queue_full) + "\n";
  out += "ecnprobed_shed_total{reason=\"tenant-budget\"} " +
         std::to_string(s.shed_tenant_budget) + "\n";
  counter("ecnprobed_rejected_invalid_total",
          "specs rejected as invalid or over budget", s.rejected_invalid);
  counter("ecnprobed_campaigns_completed_total", "campaigns finished",
          s.completed);
  counter("ecnprobed_campaigns_cancelled_total",
          "campaigns cancelled (watchdog or API)", s.cancelled);
  counter("ecnprobed_campaigns_failed_total", "campaigns failed", s.failed);
  out += "# HELP ecnprobed_queue_depth campaigns admitted and waiting\n";
  out += "# TYPE ecnprobed_queue_depth gauge\n";
  out += "ecnprobed_queue_depth " + std::to_string(queued) + "\n";
  out += "# HELP ecnprobed_running campaigns currently executing\n";
  out += "# TYPE ecnprobed_running gauge\n";
  out += "ecnprobed_running " + std::to_string(running) + "\n";
  return out;
}

std::string CampaignDaemon::daemon_progress_json() const {
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining = draining_;
  }
  std::string body = "{\"draining\":" + std::string(draining ? "true" : "false") +
                     ",\"campaigns\":[";
  bool first = true;
  for (const auto& status : statuses()) {
    if (!first) body.push_back(',');
    first = false;
    body += "{\"id\":" + json_quote(status.id) +
            ",\"state\":" + json_quote(status.state) +
            ",\"completed_traces\":" + std::to_string(status.completed_traces) +
            ",\"total_traces\":" + std::to_string(status.total_traces) + "}";
  }
  body += "]}";
  return body;
}

}  // namespace ecnprobe::daemon
