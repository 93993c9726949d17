#include "ecnprobe/analysis/autopsy.hpp"

#include <cinttypes>
#include <map>
#include <set>
#include <sstream>

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/wire/datagram.hpp"

namespace ecnprobe::analysis {

namespace {

constexpr const char* kStepNames[4] = {"udp-plain", "udp-ect0", "tcp-plain", "tcp-ecn"};

std::string format_time(util::SimTime t) {
  const std::int64_t ns = t.count_nanos();
  return util::strf("%" PRId64 ".%06" PRId64 "ms", ns / 1000000, ns % 1000000 / 1000);
}

std::string as_of(const topology::IpToAsMap& ip2as, std::uint32_t addr) {
  if (addr == 0) return "";
  const auto asn = ip2as.lookup(wire::Ipv4Address(addr));
  return asn ? util::strf("AS%u", *asn) : "";
}

struct ProbeChain {
  int probe = -1;
  std::vector<const obs::FlightEvent*> events;
  wire::Ipv4Address dst;          ///< destination of the first send
  wire::Ecn sent_ecn = wire::Ecn::NotEct;
  bool have_first_send = false;
};

}  // namespace

std::string render_trace_autopsy(const std::vector<obs::FlightEvent>& events,
                                 const obs::LedgerSnapshot& ledger,
                                 const topology::IpToAsMap& ip2as,
                                 const AutopsyRequest& request) {
  // Group the trace's events into per-probe chains, preserving recording
  // order (which is sim-event order within a trace).
  std::map<int, ProbeChain> chains;
  for (const auto& event : events) {
    if (event.key.trace != request.trace) continue;
    auto& chain = chains[event.key.probe];
    chain.probe = event.key.probe;
    chain.events.push_back(&event);
    if (!chain.have_first_send &&
        (event.type == obs::SpanEvent::ProbeSent ||
         event.type == obs::SpanEvent::Retransmit) &&
        event.wire_size() != 0) {
      if (const auto dgram = wire::Datagram::decode(event.wire())) {
        chain.dst = dgram->ip.dst;
        chain.sent_ecn = dgram->ip.ecn;
        chain.have_first_send = true;
      }
    }
  }

  std::ostringstream os;
  os << "Trace " << request.trace << " autopsy";
  if (!request.server.empty()) os << " (server " << request.server << ")";
  os << "\n";

  std::size_t probes_shown = 0;
  std::set<std::string> bleach_hops;   ///< "node (ASa -> ASb)" strings
  std::map<std::string, int> drop_causes;
  int timeouts = 0;
  int replies = 0;

  for (const auto& [probe, chain] : chains) {
    if (!request.server.empty() &&
        (!chain.have_first_send || chain.dst.to_string() != request.server)) {
      continue;
    }
    ++probes_shown;
    os << "\nprobe " << probe;
    if (probe >= 0) {
      os << " [server " << probe / 4 << " " << kStepNames[probe % 4] << "]";
    }
    if (chain.have_first_send) {
      os << " -> " << chain.dst.to_string() << " sent "
         << wire::to_string(chain.sent_ecn);
    }
    os << "\n";

    std::string last_node_as;  ///< AS of the previous packet sighting
    std::string verdict;
    for (const auto* event : chain.events) {
      const std::string node(event->node.view());
      const std::string detail(event->detail.view());
      const std::string node_as = as_of(ip2as, event->node_addr);
      os << "  " << format_time(event->time) << "  seq " << event->key.seq << "  "
         << to_string(event->type) << " @ " << node;
      if (!node_as.empty()) os << " (" << node_as << ")";
      os << " [" << to_string(event->layer) << "]";
      if (!detail.empty()) os << "  " << detail;

      switch (event->type) {
        case obs::SpanEvent::EcnRewritten: {
          std::string hop = node;
          if (!last_node_as.empty() && !node_as.empty() && last_node_as != node_as) {
            hop += " (AS boundary " + last_node_as + " -> " + node_as + ")";
            os << "  <-- AS boundary " << last_node_as << " -> " << node_as;
          } else if (!node_as.empty()) {
            hop += " (" + node_as + ")";
          }
          bleach_hops.insert(hop);
          verdict = "ECN rewritten at " + hop + " (" + detail + ")";
          break;
        }
        case obs::SpanEvent::PolicyDrop:
          ++drop_causes[detail];
          verdict = "dropped at " + node + (node_as.empty() ? "" : " (" + node_as + ")") +
                    ": " + detail;
          break;
        case obs::SpanEvent::Timeout:
          ++timeouts;
          if (verdict.empty()) verdict = "timed out (" + detail + ")";
          break;
        case obs::SpanEvent::ReplyReceived:
          ++replies;
          verdict = "reply received, " + detail;
          break;
        default:
          break;
      }
      if (!node_as.empty()) last_node_as = node_as;
      os << "\n";
    }
    if (!verdict.empty()) os << "  verdict: " << verdict << "\n";
  }

  if (probes_shown == 0) {
    os << "\nno recorded probes match";
    if (!request.server.empty()) os << " server " << request.server;
    os << " (recording disabled, or the trace was replayed from a journal)\n";
  }

  os << "\nsummary: " << probes_shown << " probes, " << replies << " replies, "
     << timeouts << " timeouts\n";
  if (!bleach_hops.empty()) {
    os << "  ECN rewritten at:";
    for (const auto& hop : bleach_hops) os << " " << hop << ";";
    os << "\n";
  }
  if (!drop_causes.empty()) {
    os << "  drops:";
    for (const auto& [cause, n] : drop_causes) os << " " << cause << "=" << n;
    os << "\n";
  }
  const auto quarantined = ledger.drops_for_cause("trace-quarantined");
  if (quarantined > 0) {
    os << "  trace quarantined by the campaign executor (" << quarantined
       << " attribution record)\n";
  }
  return os.str();
}

std::string render_sketched_autopsy(const obs::TelemetryDelta& delta,
                                    const obs::TelemetryConfig& config,
                                    const AutopsyRequest& request) {
  std::ostringstream os;
  os << "trace " << request.trace << " autopsy (sketched telemetry)\n";
  os << "  per-packet flight records were sampled out (sample-every="
     << config.sample_every << "; this trace folds into the campaign sketch).\n"
     << "  Re-run with --telemetry=exact for the full causal chain. Exact\n"
     << "  per-trace cause totals from the telemetry delta:\n";

  // The delta keys its exact counts "kind:label/cause"; bucket them back
  // into the four attribution views.
  std::map<std::string, std::map<std::string, std::uint64_t>> kinds;
  for (const auto& [key, count] : delta.counts) {
    const auto colon = key.find(':');
    if (colon == std::string::npos) continue;
    kinds[key.substr(0, colon)][key.substr(colon + 1)] += count;
  }
  const auto emit = [&os](const std::map<std::string, std::uint64_t>& rows,
                          const char* title) {
    if (rows.empty()) return;
    os << "\n  " << title << ":\n";
    for (const auto& [label, count] : rows) {
      os << "    " << label << " = " << count << "\n";
    }
  };
  emit(kinds["cause"], "drops by layer/cause");
  emit(kinds["hop"], "drops by hop/cause");
  emit(kinds["as"], "drops by AS/cause");
  emit(kinds["rewrite"], "ECN rewrites by layer/cause");
  if (delta.counts.empty()) os << "\n  no drops or rewrites recorded\n";

  if (delta.rtt_count > 0) {
    os << "\n  rtt: " << delta.rtt_count << " samples, mean "
       << util::strf("%.3f", static_cast<double>(delta.rtt_sum_nanos) /
                                 static_cast<double>(delta.rtt_count) / 1e6)
       << "ms\n";
  }
  if (!request.server.empty()) {
    os << "\n  (note: --server " << request.server
       << " filtering applies to per-packet records only; the totals above"
          " cover the whole trace)\n";
  }
  return os.str();
}

}  // namespace ecnprobe::analysis
