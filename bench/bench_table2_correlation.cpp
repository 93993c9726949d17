// Table 2 / Section 4.4: do the servers that are unreachable with ECT(0)
// UDP also refuse to negotiate ECN over TCP? (The paper finds only weak
// correlation -- middleboxes discriminate on the payload protocol.)
#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/analysis/report.hpp"

namespace {

// Table 2 as printed in the paper.
const std::map<std::string, std::pair<int, int>> kPaperTable2 = {
    {"Perkins home", {8, 3}},  {"McQuistin home", {160, 20}}, {"UGla wired", {10, 2}},
    {"UGla wless", {43, 4}},   {"EC2 Cal", {10, 3}},          {"EC2 Fra", {14, 5}},
    {"EC2 Ire", {11, 4}},      {"EC2 Ore", {14, 2}},          {"EC2 Sao", {16, 3}},
    {"EC2 Sin", {10, 3}},      {"EC2 Syd", {11, 5}},          {"EC2 Tok", {13, 2}},
    {"EC2 Vir", {16, 3}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  const auto params = bench::world_params(config);
  bench::print_header("Table 2: UDP vs TCP ECN failure correlation", config, params);

  const auto plan = bench::campaign_plan(config);
  std::printf("running %d traces...\n", plan.total_traces());
  bench::Stopwatch timer;
  const auto traces = scenario::run_campaign(params, plan).traces;
  std::printf("campaign done in %.1fs\n\n", timer.seconds());

  const auto rows = analysis::correlation_table(traces);
  std::printf("%s\n", analysis::render_table2(rows).c_str());

  std::printf("paper-vs-measured:\n");
  std::printf("  %-16s %22s %22s\n", "", "unreach UDP w/ECT", "also fail TCP ECN");
  std::printf("  %-16s %10s %10s  %10s %10s\n", "location", "measured", "paper",
              "measured", "paper");
  for (const auto& row : rows) {
    const auto it = kPaperTable2.find(row.vantage);
    if (it == kPaperTable2.end()) continue;
    std::printf("  %-16s %10.0f %10.0f  %10.0f %10.0f\n", row.vantage.c_str(),
                row.avg_unreachable_udp_with_ect, it->second.first * config.scale,
                row.avg_also_fail_tcp_ecn, it->second.second * config.scale);
  }

  // The key qualitative claim: the majority of UDP+ECT-unreachable servers
  // can still use ECN with TCP.
  double total_unreachable = 0;
  double total_fail_tcp = 0;
  for (const auto& row : rows) {
    total_unreachable += row.avg_unreachable_udp_with_ect;
    total_fail_tcp += row.avg_also_fail_tcp_ecn;
  }
  std::printf("\nacross locations: %.0f%% of UDP+ECT-unreachable servers still "
              "negotiate ECN with TCP (paper: \"the majority\")\n",
              total_unreachable > 0
                  ? 100.0 * (total_unreachable - total_fail_tcp) / total_unreachable
                  : 0.0);
  return 0;
}
