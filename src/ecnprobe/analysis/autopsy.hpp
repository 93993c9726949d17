// Trace autopsy: reconstructs the causal chain of one campaign trace from
// flight-recorder events joined with the drop-attribution ledger. Where the
// loss-autopsy table says "47 probes died of policy/ect-udp-filter", the
// trace autopsy names the packet: "probe 13 seq 0 ECT(0) -> not-ECT
// rewritten at core-3 (AS boundary 3356 -> 174), dropped at fw-9
// (ect-udp-filter), timed out after 5 attempts".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ecnprobe/obs/flight.hpp"
#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/obs/telemetry.hpp"
#include "ecnprobe/topology/ip2as.hpp"
#include "ecnprobe/wire/ipv4.hpp"

namespace ecnprobe::analysis {

struct AutopsyRequest {
  int trace = 0;
  /// Restrict to probes of this server (none = every probe in the trace).
  /// Matched against the destination of each probe's first send.
  std::optional<wire::Ipv4Address> server;
};

/// Renders the per-probe event chains for one trace: every span's events in
/// time order, nodes annotated with their AS, ECN rewrites annotated with
/// the AS boundary they sit on, plus a verdict line per probe and a
/// trace-level summary that names bleaching hops and drop causes. `ledger`
/// supplies the trace's aggregate attribution (quarantine markers
/// included); `ip2as` resolves node addresses to ASes (events with
/// node_addr 0 stay unannotated).
std::string render_trace_autopsy(const std::vector<obs::FlightEvent>& events,
                                 const obs::LedgerSnapshot& ledger,
                                 const topology::IpToAsMap& ip2as,
                                 const AutopsyRequest& request);

/// Fallback report for a trace whose per-packet flight records were sampled
/// out by sketched telemetry (head-based sampling keeps exact records for
/// every Nth trace only). Renders the trace's telemetry delta -- drop causes,
/// per-hop and per-AS attributions, rewrites, RTT totals -- so the autopsy
/// degrades to an exact per-trace cause summary instead of an empty report.
std::string render_sketched_autopsy(const obs::TelemetryDelta& delta,
                                    const obs::TelemetryConfig& config,
                                    const AutopsyRequest& request);

}  // namespace ecnprobe::analysis
