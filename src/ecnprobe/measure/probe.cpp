#include "ecnprobe/measure/probe.hpp"

#include <memory>
#include <stdexcept>

#include "ecnprobe/obs/ledger.hpp"

namespace ecnprobe::measure {

void ProbeOptions::validate() const {
  if (udp_attempts <= 0) {
    throw std::invalid_argument("ProbeOptions: udp_attempts must be >= 1");
  }
  if (udp_timeout.count_nanos() <= 0) {
    throw std::invalid_argument("ProbeOptions: udp_timeout must be positive");
  }
  if (http_deadline.count_nanos() <= 0) {
    throw std::invalid_argument("ProbeOptions: http_deadline must be positive");
  }
  if (inter_test_gap.count_nanos() < 0) {
    throw std::invalid_argument("ProbeOptions: inter_test_gap must not be negative");
  }
  sched.validate();
}

namespace {

/// The `test` label of each probe step.
constexpr const char* kStepNames[4] = {"udp-plain", "udp-ect0", "tcp-plain", "tcp-ecn"};

// Vantage::probe_counters() slots: the two UDP steps' ok and timeout
// outcomes, their attempt totals, the two TCP steps' ok and failed
// outcomes, and the vantage's fully probed servers.
constexpr std::size_t kUdpOutcomeSlot = 0;
constexpr std::size_t kUdpAttemptsSlot = 4;
constexpr std::size_t kTcpOutcomeSlot = 6;
constexpr std::size_t kServersSlot = 10;

// Sequential four-step probe of one server. Self-owning via shared_ptr.
//
// With a supervisor attached, each step passes through three gates before
// launch: the server's group breaker (once, before step 0), the per-server
// breaker, and the pacer. A null supervisor -- the paper-default config --
// takes exactly the legacy code path.
struct ServerProbe : std::enable_shared_from_this<ServerProbe> {
  Vantage& vantage;
  wire::Ipv4Address server;
  ProbeOptions options;
  std::function<void(const ServerResult&)> handler;
  ServerResult result;
  int span_base = 0;  ///< flight-recorder probe index of step 0
  sched::TraceSupervisor* supervisor = nullptr;  ///< null = paper default
  std::shared_ptr<sched::TraceSupervisor> owned_supervisor;  ///< standalone probes
  netsim::EventHandle watchdog;
  bool finished = false;  ///< set once: completion, skip, or watchdog cancel

  ServerProbe(Vantage& v, wire::Ipv4Address s, ProbeOptions o,
              std::function<void(const ServerResult&)> cb, int base)
      : vantage(v), server(s), options(std::move(o)), handler(std::move(cb)),
        span_base(base) {
    result.server = s;
  }

  /// Stamps the flight-recorder span context for probe step `step`
  /// (0 udp-plain, 1 udp-ect0, 2 tcp-plain, 3 tcp-ecn). Clients bump seq
  /// per attempt; the reset here keys the step's first packet at seq 0.
  void set_span(int step) {
    auto& recorder = vantage.host().network().obs().recorder;
    if (!recorder.armed()) return;
    recorder.set_probe(span_base + step);
    recorder.set_seq(0);
  }

  ntp::NtpQueryOptions udp_options(wire::Ecn ecn, int step) const {
    ntp::NtpQueryOptions q;
    q.ecn = ecn;
    q.max_attempts = options.udp_attempts;
    q.timeout = options.udp_timeout;
    if (supervisor != nullptr && supervisor->adaptive_retry()) {
      q.timeout_schedule = supervisor->retry_schedule(server, step);
      q.max_attempts = static_cast<int>(q.timeout_schedule.size());
      q.hedge_delay = supervisor->config().retry.hedge_delay;
    }
    return q;
  }

  static UdpProbeOutcome to_outcome(const ntp::NtpQueryResult& r) {
    UdpProbeOutcome o;
    o.reachable = r.success;
    o.attempts = r.attempts;
    o.rtt_ms = r.rtt.to_millis();
    return o;
  }

  static TcpProbeOutcome to_outcome(const http::HttpGetResult& r) {
    TcpProbeOutcome o;
    o.connected = r.connected;
    o.ecn_negotiated = r.ecn_negotiated;
    o.got_response = r.got_response;
    o.http_status = r.status;
    return o;
  }

  void after_gap(std::function<void()> fn) {
    vantage.host().network().sim().schedule(options.inter_test_gap, std::move(fn));
  }

  // Probe-outcome accounting. Failed probes are also entered in the drop
  // ledger (cause probe-timeout, node = target server), which is what lets
  // the loss autopsy reconcile exactly with Figure 2's unreachable cells:
  // every failed probe has an attributed cause.
  void record_udp(int step, const ntp::NtpQueryResult& r) {
    const char* test = kStepNames[step];
    auto& o = vantage.host().network().obs();
    const auto udp = static_cast<std::size_t>(step);
    vantage.probe_counters()
        .get(o.registry, kUdpOutcomeSlot + 2 * udp + (r.success ? 0 : 1),
             [&] {
               return o.registry.counter(
                   "probe_udp_total", {{"test", test}, {"outcome", r.success ? "ok" : "timeout"}},
                   "UDP NTP probe outcomes");
             })
        .inc();
    vantage.probe_counters()
        .get(o.registry, kUdpAttemptsSlot + udp,
             [&] {
               return o.registry.counter("probe_udp_attempts_total", {{"test", test}},
                                         "UDP NTP request transmissions, retries included");
             })
        .inc(static_cast<std::uint64_t>(r.attempts));
    if (!r.success) {
      o.ledger.record_drop(obs::Layer::Measure, obs::DropCause::ProbeTimeout, server);
    } else if (o.telemetry.armed()) {
      // Sketched mode folds every successful probe RTT into the log-bucketed
      // histogram; exact mode keeps the registry untouched (byte-compat).
      o.telemetry.observe_rtt(r.rtt);
    }
    if (o.timeseries.armed()) {
      o.timeseries.on_probe(test, r.success ? "ok" : "timeout");
      if (r.success) o.timeseries.observe_rtt(r.rtt);
    }
    if (supervisor != nullptr) {
      supervisor->on_step_result(server, r.success);
      if (supervisor->adaptive_retry()) supervisor->count_attempts(test, r.attempts);
    }
  }

  void record_tcp(int step, const http::HttpGetResult& r) {
    const char* test = kStepNames[step];
    auto& o = vantage.host().network().obs();
    vantage.probe_counters()
        .get(o.registry,
             kTcpOutcomeSlot + 2 * static_cast<std::size_t>(step - 2) + (r.connected ? 0 : 1),
             [&] {
               return o.registry.counter(
                   "probe_tcp_total", {{"test", test}, {"outcome", r.connected ? "ok" : "failed"}},
                   "TCP HTTP probe outcomes");
             })
        .inc();
    if (!r.connected) {
      o.ledger.record_drop(obs::Layer::Measure, obs::DropCause::ProbeTimeout, server);
      if (o.recorder.armed()) {
        // The TCP stack records each SYN flight; the probe-level give-up is
        // keyed by context (no packet to hang it on).
        o.recorder.record_here(obs::SpanEvent::Timeout,
                               vantage.host().network().sim().now(), obs::Layer::Measure,
                               vantage.name(), 0, std::string("test=") + test);
      }
    }
    if (o.timeseries.armed()) {
      o.timeseries.on_probe(test, r.connected ? "ok" : "failed");
    }
    if (supervisor != nullptr) supervisor->on_step_result(server, r.connected);
  }

  bool any_step_succeeded() const {
    return result.udp_plain.reachable || result.udp_ect0.reachable ||
           result.tcp_plain.connected || result.tcp_ecn.connected;
  }

  void start() {
    if (supervisor != nullptr) {
      arm_watchdog();
      if (!supervisor->allow_server(server)) {
        // The server's AS group tripped its breaker: skip the whole
        // four-step sequence. Every skipped probe step gets a circuit-open
        // attribution so the loss autopsy still accounts for it; the
        // server does NOT count towards probe_servers_total (it was never
        // probed) and does not feed the breaker (only real outcomes do).
        for (int step = 0; step < 4; ++step) supervisor->record_skip(server, "group");
        finished = true;
        watchdog.cancel();
        if (handler) handler(result);
        return;
      }
    }
    run_step(0);
  }

  /// Gate + launch for step `step`; steps >= 4 mean the sequence is done.
  void run_step(int step) {
    if (finished) return;
    if (step >= 4) {
      complete();
      return;
    }
    if (supervisor != nullptr) {
      if (!supervisor->allow_step(server)) {
        // Per-server breaker open: the step is recorded as failed without
        // sending anything, attributed circuit-open. No breaker feedback
        // (a skip is not evidence) and no probe_*_total counters (nothing
        // was probed). The next step follows immediately.
        supervisor->record_skip(server, "server");
        run_step(step + 1);
        return;
      }
      const auto now = vantage.host().network().sim().now();
      const auto launch = supervisor->pace(now, server);
      if (launch > now) {
        auto self = shared_from_this();
        vantage.host().network().sim().schedule(
            launch - now, [self, step]() { self->launch_step(step); });
        return;
      }
    }
    launch_step(step);
  }

  void launch_step(int step) {
    if (finished) return;
    auto self = shared_from_this();
    set_span(step);
    switch (step) {
      case 0:
        // Step 1: NTP request in a not-ECT marked UDP packet.
        vantage.ntp().query(server, udp_options(wire::Ecn::NotEct, 0),
                            [self](const ntp::NtpQueryResult& r) {
                              if (self->finished) return;
                              self->record_udp(0, r);
                              self->result.udp_plain = to_outcome(r);
                              self->after_gap([self]() { self->run_step(1); });
                            });
        break;
      case 1:
        // Step 2: the same request in an ECT(0) marked packet.
        vantage.ntp().query(server, udp_options(wire::Ecn::Ect0, 1),
                            [self](const ntp::NtpQueryResult& r) {
                              if (self->finished) return;
                              self->record_udp(1, r);
                              self->result.udp_ect0 = to_outcome(r);
                              self->after_gap([self]() { self->run_step(2); });
                            });
        break;
      case 2:
        // Step 3: HTTP GET without attempting to negotiate ECN.
        vantage.http().get(server, /*want_ecn=*/false,
                           [self](const http::HttpGetResult& r) {
                             if (self->finished) return;
                             self->record_tcp(2, r);
                             self->result.tcp_plain = to_outcome(r);
                             self->after_gap([self]() { self->run_step(3); });
                           },
                           wire::kHttpPort, options.http_deadline);
        break;
      default:
        // Step 4: HTTP GET with an ECN-setup SYN.
        vantage.http().get(server, /*want_ecn=*/true,
                           [self](const http::HttpGetResult& r) {
                             if (self->finished) return;
                             self->record_tcp(3, r);
                             self->result.tcp_ecn = to_outcome(r);
                             self->run_step(4);
                           },
                           wire::kHttpPort, options.http_deadline);
        break;
    }
  }

  void complete() {
    finished = true;
    watchdog.cancel();
    if (supervisor != nullptr) supervisor->on_server_result(server, any_step_succeeded());
    auto& registry = vantage.host().network().obs().registry;
    vantage.probe_counters()
        .get(registry, kServersSlot,
             [&] {
               return registry.counter("probe_servers_total", {{"vantage", vantage.name()}},
                                       "servers fully probed, per vantage");
             })
        .inc();
    if (handler) handler(result);
  }

  void arm_watchdog() {
    const auto deadline = supervisor->config().watchdog.deadline;
    if (deadline.count_nanos() <= 0) return;
    auto self = shared_from_this();
    watchdog = vantage.host().network().sim().schedule(
        deadline, [self]() { self->on_watchdog(); });
  }

  void on_watchdog() {
    if (finished) return;
    // The hard deadline fired mid-sequence: cancel the server. Steps still
    // pending stay at their default (failed) outcome; callbacks from any
    // in-flight query find `finished` set and bail, so the stragglers
    // settle silently at the quiescence barrier. The cancellation is
    // attributed in the ledger and named in the flight log so trace-autopsy
    // can show what stalled.
    finished = true;
    auto& o = vantage.host().network().obs();
    o.ledger.record_drop(obs::Layer::Measure, obs::DropCause::WatchdogCancelled, server);
    if (o.recorder.armed()) {
      o.recorder.record_here(obs::SpanEvent::Timeout,
                             vantage.host().network().sim().now(), obs::Layer::Measure,
                             vantage.name(), 0,
                             "watchdog cancelled server " + server.to_string());
    }
    supervisor->count_watchdog_cancel(vantage.name());
    supervisor->on_server_result(server, any_step_succeeded());
    if (handler) handler(result);
  }
};

}  // namespace

void probe_server(Vantage& vantage, wire::Ipv4Address server, const ProbeOptions& options,
                  std::function<void(const ServerResult&)> handler, int span_base) {
  options.validate();
  auto probe =
      std::make_shared<ServerProbe>(vantage, server, options, std::move(handler), span_base);
  if (!options.sched.is_paper_default()) {
    // Standalone probes get a private single-trace supervisor (salt 0).
    probe->owned_supervisor = std::make_shared<sched::TraceSupervisor>(
        options.sched, vantage.host().network().obs(), options.breaker_group,
        /*trace_salt=*/0);
    probe->supervisor = probe->owned_supervisor.get();
  }
  probe->start();
}

TraceRunner::TraceRunner(Vantage& vantage, std::vector<wire::Ipv4Address> servers,
                         ProbeOptions options)
    : vantage_(vantage), servers_(std::move(servers)), options_(std::move(options)) {
  options_.validate();
}

void TraceRunner::run(int batch, int index, Handler handler) {
  trace_ = Trace{};
  trace_.vantage = vantage_.name();
  trace_.batch = batch;
  trace_.index = index;
  trace_.servers.reserve(servers_.size());
  cursor_ = 0;
  handler_ = std::move(handler);
  supervisor_.reset();
  if (!options_.sched.is_paper_default()) {
    // Trace-scoped: breaker and pacer state restarts cold each trace, so a
    // sharded executor that picks this trace up reproduces it exactly.
    supervisor_ = std::make_shared<sched::TraceSupervisor>(
        options_.sched, vantage_.host().network().obs(), options_.breaker_group,
        static_cast<std::uint64_t>(index));
  }
  next_server();
}

void TraceRunner::next_server() {
  if (cursor_ >= servers_.size()) {
    if (handler_) handler_(std::move(trace_));
    return;
  }
  const int span_base = static_cast<int>(cursor_) * 4;
  const auto server = servers_[cursor_++];
  auto probe = std::make_shared<ServerProbe>(
      vantage_, server, options_,
      [this](const ServerResult& result) {
        trace_.servers.push_back(result);
        next_server();
      },
      span_base);
  probe->supervisor = supervisor_.get();
  probe->start();
}

TracerouteRunner::TracerouteRunner(Vantage& vantage,
                                   std::vector<wire::Ipv4Address> servers,
                                   traceroute::TracerouteOptions options, int repetitions)
    : vantage_(vantage),
      servers_(std::move(servers)),
      options_(options),
      repetitions_(repetitions) {}

void TracerouteRunner::run(Handler handler) {
  handler_ = std::move(handler);
  cursor_ = 0;
  repetition_ = 0;
  observations_.clear();
  next();
}

void TracerouteRunner::next() {
  if (cursor_ >= servers_.size()) {
    if (handler_) handler_(std::move(observations_));
    return;
  }
  const auto server = servers_[cursor_];
  vantage_.tracer().trace(server, options_, [this](const traceroute::PathRecord& path) {
    TracerouteObservation obs;
    obs.vantage = vantage_.name();
    obs.repetition = repetition_;
    obs.path = path;
    observations_.push_back(std::move(obs));
    if (++repetition_ >= repetitions_) {
      repetition_ = 0;
      ++cursor_;
    }
    next();
  });
}

}  // namespace ecnprobe::measure
