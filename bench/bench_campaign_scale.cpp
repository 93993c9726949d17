// Campaign scale harness: how fast can the engine push probe exchanges at
// 2.5k / 25k / 250k / 1M synthetic servers?
//
// The full World builds a node per server, so a 1M-server world would need
// gigabytes. This bench instead attaches a single *prefix responder* node
// that answers for every synthetic server address (O(1) memory in the
// server count), behind a real Router so the hot path is the production
// one: datagram build, link transmission, TTL decrement, and
// calendar-queue event dispatch. On-the-wire bytes are read from each
// datagram's IP total length; nothing on this path serialises a packet.
//
//   bench_campaign_scale [--preset=2.5k,25k,250k | --preset=all | --preset=1m]
//                        [--bench-json=PATH]
//
// Probes are grouped into traces of up to 1000 servers each (the unit the
// campaign executor schedules); the per-trace wall-clock p99 is reported
// alongside probes/sec, sim-events/sec, and bytes/probe.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecnprobe/netsim/network.hpp"
#include "ecnprobe/netsim/router.hpp"
#include "ecnprobe/netsim/sim.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace {

using namespace ecnprobe;

/// Answers a probe addressed to *any* synthetic server: echoes the payload
/// back from the probed address. One node stands in for a million servers.
class PrefixResponder : public netsim::Node {
public:
  PrefixResponder() : Node("pool-prefix") {}

  void on_receive(wire::Datagram dgram, int ingress_if) override {
    const auto udp = wire::decode_udp_segment(dgram.ip.src, dgram.ip.dst, dgram.payload);
    if (!udp.has_value()) return;
    ++responses;
    wire::Datagram reply = wire::make_udp_datagram(
        dgram.ip.dst, dgram.ip.src, udp->header.dst_port, udp->header.src_port,
        std::vector<std::uint8_t>(udp->payload.begin(), udp->payload.end()),
        dgram.ip.ecn);
    bytes_sent += reply.ip.total_length;
    network().transmit(id(), ingress_if, std::move(reply));
  }

  std::uint64_t responses = 0;
  std::uint64_t bytes_sent = 0;
};

/// The probing side: fires paced probes at synthetic addresses, counts
/// replies and on-the-wire bytes.
class ProbeSource : public netsim::Node {
public:
  ProbeSource() : Node("vantage") {}

  void on_receive(wire::Datagram dgram, int ingress_if) override {
    (void)dgram;
    (void)ingress_if;
    ++replies;
  }

  void send_probe(wire::Ipv4Address target) {
    wire::Datagram probe = wire::make_udp_datagram(
        address(), target, 40'000, 123, payload_, wire::Ecn::Ect0);
    bytes_sent += probe.ip.total_length;
    network().transmit(id(), 0, std::move(probe));
  }

  std::uint64_t replies = 0;
  std::uint64_t bytes_sent = 0;

private:
  std::vector<std::uint8_t> payload_ = std::vector<std::uint8_t>(48, 0xab);
};

struct Preset {
  const char* name;
  const char* metric_suffix;
  int servers;
};

constexpr Preset kPresets[] = {
    {"2.5k", "2k5", 2'500},
    {"25k", "25k", 25'000},
    {"250k", "250k", 250'000},
    {"1m", "1m", 1'000'000},
};

struct ScaleResult {
  double seconds = 0.0;
  double probes_per_sec = 0.0;
  double events_per_sec = 0.0;
  double events_per_probe = 0.0;
  double bytes_per_probe = 0.0;
  double p99_trace_ms = 0.0;
  std::uint64_t replies = 0;
};

ScaleResult run_preset(int servers) {
  netsim::Simulator sim;
  netsim::Network net(sim, util::Rng(1));

  auto source_owner = std::make_unique<ProbeSource>();
  auto responder_owner = std::make_unique<PrefixResponder>();
  ProbeSource* source = source_owner.get();
  PrefixResponder* responder = responder_owner.get();
  const auto source_id = net.add_node(std::move(source_owner));
  auto router = std::make_unique<netsim::Router>("core", netsim::Router::Params{},
                                                 util::Rng(2));
  const auto router_id = net.add_node(std::move(router));
  const auto responder_id = net.add_node(std::move(responder_owner));
  net.node(source_id).set_address(wire::Ipv4Address(10, 0, 0, 1));
  net.node(router_id).set_address(wire::Ipv4Address(12, 0, 0, 1));
  // The responder's own address is never probed; it answers for the whole
  // synthetic prefix via the routing oracle below.
  net.node(responder_id).set_address(wire::Ipv4Address(11, 255, 255, 254));
  net.connect(source_id, router_id, netsim::LinkParams{});   // if 0 <-> if 0
  net.connect(router_id, responder_id, netsim::LinkParams{});  // if 1 <-> if 0
  const auto vantage_addr = net.node(source_id).address();
  net.set_routing_oracle([vantage_addr](netsim::NodeId at, wire::Ipv4Address dst) {
    (void)at;
    return dst == vantage_addr ? 0 : 1;  // router if-indices; hosts use if 0
  });

  // Synthetic server addresses walk an 11.x.x.x prefix deterministically.
  const auto target = [](int i) {
    const auto v = static_cast<std::uint32_t>(i);
    return wire::Ipv4Address(11, static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v));
  };

  constexpr int kTraceSize = 1000;  // servers per scheduled trace
  std::vector<double> trace_seconds;
  const bench::Stopwatch total;
  int sent = 0;
  while (sent < servers) {
    const int batch = std::min(kTraceSize, servers - sent);
    const bench::Stopwatch per_trace;
    for (int i = 0; i < batch; ++i) {
      // Pace probes 200ns apart so thousands are in flight concurrently --
      // the event-queue population a sharded campaign sustains.
      const int index = sent + i;
      sim.schedule(util::SimDuration::nanos(200 * i),
                   [source, index, &target] { source->send_probe(target(index)); });
    }
    sim.run();
    trace_seconds.push_back(per_trace.seconds());
    sent += batch;
  }

  ScaleResult result;
  result.seconds = total.seconds();
  result.replies = source->replies;
  const auto probes = static_cast<double>(servers);
  result.probes_per_sec = result.seconds > 0.0 ? probes / result.seconds : 0.0;
  result.events_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(sim.events_processed()) / result.seconds
          : 0.0;
  result.events_per_probe = static_cast<double>(sim.events_processed()) / probes;
  result.bytes_per_probe =
      static_cast<double>(source->bytes_sent + responder->bytes_sent) / probes;
  std::sort(trace_seconds.begin(), trace_seconds.end());
  const auto p99_index = static_cast<std::size_t>(
      0.99 * static_cast<double>(trace_seconds.size()));
  result.p99_trace_ms =
      trace_seconds[std::min(p99_index, trace_seconds.size() - 1)] * 1e3;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string presets = "2.5k,25k,250k";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--preset=", 0) == 0) presets = arg.substr(9);
    else if (arg.rfind("--bench-json=", 0) == 0) json_path = arg.substr(13);
    else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--preset=2.5k,25k,250k,1m|all] [--bench-json=PATH]\n",
                  argv[0]);
      return 0;
    }
  }
  if (presets == "all") presets = "2.5k,25k,250k,1m";

  bench::BenchJson json("campaign");
  std::printf("%8s %10s %14s %14s %10s %10s %12s\n", "servers", "seconds",
              "probes/s", "events/s", "ev/probe", "B/probe", "p99 trace");
  bool first = true;
  for (const auto& preset : kPresets) {
    if (presets.find(preset.name) == std::string::npos) continue;
    const auto r = run_preset(preset.servers);
    if (r.replies != static_cast<std::uint64_t>(preset.servers)) {
      std::printf("FAIL: %s preset lost replies (%llu of %d)\n", preset.name,
                  static_cast<unsigned long long>(r.replies), preset.servers);
      return 1;
    }
    std::printf("%8s %9.2fs %14.0f %14.0f %10.2f %10.1f %9.2fms\n", preset.name,
                r.seconds, r.probes_per_sec, r.events_per_sec, r.events_per_probe,
                r.bytes_per_probe, r.p99_trace_ms);
    const std::string suffix = preset.metric_suffix;
    json.add("probes_per_sec_" + suffix, r.probes_per_sec, "probes/s");
    json.add("sim_events_per_sec_" + suffix, r.events_per_sec, "events/s");
    json.add("p99_trace_ms_" + suffix, r.p99_trace_ms, "ms");
    json.add("sim_events_per_probe_" + suffix, r.events_per_probe, "events",
             /*guarded=*/true);
    if (first) {
      // Identical across presets by construction; guard it once.
      json.add("bytes_per_probe", r.bytes_per_probe, "bytes", /*guarded=*/true);
      first = false;
    }
  }
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
