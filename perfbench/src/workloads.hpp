// The benchmark's workloads. Each one generates the library's inputs
// (WorldParams, CampaignPlan, ProbeOptions) from the run seed and drives
// them through the same public entry points the CLI uses. A pass runs
// either untraced -- the end-to-end measurement -- or traced, where the
// benchmark records spans at every layer boundary and reads the library's
// own deterministic counters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecnprobe/wire/datagram.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one pass of a workload produced.
struct PassResult {
  double wall_s = 0.0;   ///< world build to last export rendered
  double cpu_s = 0.0;    ///< process CPU time over the same interval
  double setup_s = 0.0;  ///< world construction (+ journal open)
  double phase_s = 0.0;  ///< campaign phase (probes) or sweep phase (paths)
  std::uint64_t ops_planned = 0;  ///< server-trace probes or traceroute paths
  std::uint64_t ops_failed = 0;   ///< missing, quarantined, or failing a check
  std::vector<std::string> problems;  ///< failed output checks
  std::uint64_t digest = 0;           ///< FNV-1a over every rendered output

  // Traced passes only.
  Metrics layers;  ///< per-layer metrics
  /// Counts that are a pure function of the inputs: two traced passes of
  /// one seed must agree on every one of them.
  std::map<std::string, std::uint64_t> counts;
  /// One trace's vantage capture, replayed through the wire codec after
  /// the timed passes.
  std::vector<ecnprobe::wire::Datagram> replay;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One standalone, timed set-up: what a pass does before its first
  /// probe or path (world construction, journal open).
  virtual double setup_once() = 0;
  /// One pass. `spans` null = untraced: no shard decorator, no spans.
  virtual PassResult run_pass(SpanRecorder* spans) = 0;
};

enum class Size { Full, Tiny };

const std::vector<std::string>& workload_names();

/// Null for an unknown name. `out_dir` holds the journal.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Size size, const std::string& out_dir);

/// Replays `dgrams` through wire::Datagram encode -> decode -> encode,
/// adds wire.encode_ns_per_pkt / wire.decode_ns_per_pkt to `out`, and
/// returns how many datagrams failed to round-trip byte for byte.
std::uint64_t replay_wire(const std::vector<ecnprobe::wire::Datagram>& dgrams,
                          Metrics* out);

}  // namespace perfbench
