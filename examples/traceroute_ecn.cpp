// ECN-revealing traceroute across the simulated Internet: traces paths to a
// handful of pool servers and draws the per-hop ECN verdicts, including a
// path that crosses an ECN bleacher ("runs of red" in the paper's
// Figure 4).
//
//   $ ./traceroute_ecn [n_targets]
//
// n_targets is a whole number in [1, 2^20]; anything else exits 2 with
// the usage text.
#include <cstdio>
#include <functional>

#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/strings.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: traceroute_ecn [n_targets]\n"
                       "  n_targets: servers to trace, 1 to 1048576 (default 8)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  if (argc > 2) return usage();
  const auto n = argc == 2 ? util::parse_integer<int>(argv[1]) : std::optional<int>(8);
  if (!n || *n < 1 || *n > (1 << 20)) {
    std::fprintf(stderr, "traceroute_ecn: bad n_targets '%s'\n", argv[1]);
    return usage();
  }
  const int n_targets = *n;

  auto params = scenario::WorldParams::paper().scaled(0.1);
  // Generous ICMP response rates so the listing reads like a full
  // traceroute; the paper-scale benches use realistic (sparser) rates.
  params.topology.icmp_response_prob_min = 0.9;
  params.topology.icmp_response_prob_max = 1.0;
  scenario::World world(params);
  auto& vantage = world.vantage("UGla wired");

  std::printf("traceroute with ECT(0)-marked UDP probes, from '%s'\n",
              vantage.name().c_str());
  std::printf("legend: hop quoted ECT(0) intact [+], stripped [-], silent [*]\n");

  const auto servers = world.server_addresses();
  int remaining = std::min<int>(n_targets, static_cast<int>(servers.size()));
  int cursor = 0;
  std::function<void()> next = [&]() {
    if (remaining-- <= 0) return;
    const auto target = servers[static_cast<std::size_t>(cursor)];
    // Spread the targets over the pool; wrap, so more targets than
    // 1 + servers/stride revisit servers instead of reading past the end.
    cursor = (cursor + static_cast<int>(servers.size()) / n_targets + 1) %
             static_cast<int>(servers.size());
    traceroute::TracerouteOptions options;
    options.probes_per_hop = 2;
    vantage.tracer().trace(target, options, [&, target](const traceroute::PathRecord& r) {
      std::printf("\n-> %s (%d hops probed)\n", target.to_string().c_str(),
                  static_cast<int>(r.hops.size()));
      for (const auto& hop : r.hops) {
        if (!hop.responded) {
          std::printf("  %2d  *               (no response)\n", hop.ttl);
          continue;
        }
        const auto asn = world.ip2as().lookup(hop.responder);
        std::printf("  %2d  %c %-15s AS%-6u quoted %s\n", hop.ttl,
                    hop.ecn_intact() ? '+' : '-', hop.responder.to_string().c_str(),
                    asn ? *asn : 0,
                    std::string(wire::to_string(hop.quoted_ecn)).c_str());
      }
      next();
    });
  };
  next();
  world.sim().run();

  std::printf("\nHops printed '-' sit downstream of an ECN bleacher: the ICMP\n"
              "quotation shows the ECT(0) mark was cleared before reaching them.\n");
  return 0;
}
