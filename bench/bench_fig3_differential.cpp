// Figures 3a/3b: per-server differential reachability. Reproduces the tall
// persistent spikes (servers behind ECT-dropping firewalls), their presence
// from every vantage point, the small Figure 3b population, and the paper's
// "4x more transient than persistent" observation.
//
// With --bench-json=PATH it runs no world and no campaign. It folds
// synthetic traces (2,500 servers, the 13 paper vantages) at 21 and at 210
// traces, reads every figure's values from the fold, and writes the most
// heap bytes live while it does (the traces themselves excluded, counted
// by this binary's own operator new) and whether 10x the traces stays
// within 10% of that.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"
#include "ecnprobe/analysis/figures.hpp"
#include "ecnprobe/analysis/report.hpp"
#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/util/rng.hpp"

namespace {

// Heap bytes made live while counting is on. A block is counted by its
// usable size when allocated and when freed, so sized and unsized deletes
// agree; blocks allocated before counting starts must outlive it.
std::atomic<bool> g_counting{false};
long long g_live = 0;
long long g_peak = 0;

void* counted_new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live += static_cast<long long>(malloc_usable_size(p));
    g_peak = std::max(g_peak, g_live);
  }
  return p;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live -= static_cast<long long>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace {

using namespace ecnprobe;

constexpr int kServers = 2500;

/// `count` traces over kServers servers, round-robin over the 13 paper
/// vantages, with ~0.5% of servers behind ECT(0)-dropping firewalls and
/// transient loss on either marking.
std::vector<measure::Trace> synthetic_traces(int count) {
  const auto& vantages = measure::paper_vantage_names();
  util::Rng rng(42);
  std::vector<measure::Trace> traces(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    auto& trace = traces[static_cast<std::size_t>(t)];
    trace.vantage = vantages[static_cast<std::size_t>(t) % vantages.size()];
    trace.index = t;
    trace.servers.resize(kServers);
    for (int i = 0; i < kServers; ++i) {
      auto& s = trace.servers[static_cast<std::size_t>(i)];
      s.server = wire::Ipv4Address(0x0b000000u + static_cast<std::uint32_t>(i));
      s.udp_plain.reachable = rng.bernoulli(0.9);
      s.udp_ect0.reachable = i % 200 != 7 && rng.bernoulli(0.89);
      s.tcp_plain.got_response = rng.bernoulli(0.53);
      s.tcp_ecn.connected = s.tcp_plain.got_response;
      s.tcp_ecn.ecn_negotiated = rng.bernoulli(0.82);
    }
  }
  return traces;
}

/// Folds `traces` and reads every figure's values from the fold (not
/// their text: Figures 2 and 5 draw one bar per trace). Returns a count
/// drawn from each, so none is optimised away.
std::size_t compute_figures(const std::vector<measure::Trace>& traces) {
  analysis::FigureFold fold;
  for (const auto& trace : traces) fold.add(trace);
  const auto& vantages = measure::paper_vantage_names();
  const auto summary = fold.summary();
  const auto per_vantage = fold.per_vantage();
  const auto correlation = fold.correlation();
  const auto over = analysis::count_over_threshold(fold.differential(), vantages);
  const auto persistent = analysis::persistent_failures(fold.differential(), vantages);
  return fold.per_trace().size() + per_vantage.size() + correlation.size() + over.size() +
         persistent.size() + (summary.mean_reachable_tcp > 0.0 ? 1 : 0);
}

/// The most heap bytes live while compute_figures(traces) runs.
long long figure_peak_live_bytes(const std::vector<measure::Trace>& traces,
                                 std::size_t* rows) {
  g_live = 0;
  g_peak = 0;
  g_counting.store(true, std::memory_order_relaxed);
  *rows = compute_figures(traces);
  g_counting.store(false, std::memory_order_relaxed);
  return g_peak;
}

int memory_guard(const std::string& bench_json) {
  std::printf("Figure fold memory: %d servers x %zu vantages\n", kServers,
              measure::paper_vantage_names().size());
  long long peak[2] = {0, 0};
  const int counts[2] = {21, 210};
  for (int i = 0; i < 2; ++i) {
    const auto traces = synthetic_traces(counts[i]);
    std::size_t rows = 0;
    peak[i] = figure_peak_live_bytes(traces, &rows);
    std::printf("  %3d traces: peak %lld bytes live while the figures are computed "
                "(%zu result rows)\n",
                counts[i], peak[i], rows);
  }
  const bool flat = static_cast<double>(peak[1]) <= 1.10 * static_cast<double>(peak[0]);
  std::printf("  10x the traces within 10%%: %s\n", flat ? "yes" : "NO");
  bench::BenchJson json("analysis");
  json.add("figure_peak_live_bytes", static_cast<double>(peak[0]), "bytes", true);
  json.add("memory_flat_at_10x_traces", flat ? 1.0 : 0.0, "bool", true);
  if (!json.write(bench_json)) return 1;
  return flat ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecnprobe;
  const auto config = bench::parse_args(argc, argv);
  if (!config.bench_json.empty()) return memory_guard(config.bench_json);
  const auto params = bench::world_params(config);
  bench::print_header("Figure 3: per-server differential reachability", config, params);

  const auto plan = bench::campaign_plan(config);
  std::printf("running %d traces...\n", plan.total_traces());
  bench::Stopwatch timer;
  const auto traces = scenario::run_campaign(params, plan).traces;
  std::printf("campaign done in %.1fs\n\n", timer.seconds());

  const auto diffs = analysis::per_server_differential(traces);

  std::printf("Figure 3a (aggregate over vantages): servers reachable not-ECT but not "
              "ECT(0)\n");
  std::printf("%s\n", analysis::render_figure3a(diffs).c_str());
  std::printf("Figure 3b (aggregate): servers reachable ECT(0) but not not-ECT\n");
  std::printf("%s\n", analysis::render_figure3b(diffs).c_str());

  const auto& vantages = measure::paper_vantage_names();
  const auto counts = analysis::count_over_threshold(diffs, vantages, 50.0);
  std::printf("servers with differential reachability > 50%% per location:\n");
  int min_a = 1 << 30;
  int max_a = 0;
  int max_b = 0;
  for (const auto& row : counts) {
    std::printf("  %-16s fig3a: %3d   fig3b: %3d\n", row.vantage.c_str(),
                row.plain_not_ect_over_threshold, row.ect_not_plain_over_threshold);
    min_a = std::min(min_a, row.plain_not_ect_over_threshold);
    max_a = std::max(max_a, row.plain_not_ect_over_threshold);
    max_b = std::max(max_b, row.ect_not_plain_over_threshold);
  }
  std::printf("\ncomparison:\n");
  bench::compare("fig3a spikes per location (min)", min_a, 9 * config.scale);
  bench::compare("fig3a spikes per location (max)", max_a, 14 * config.scale);
  bench::compare("fig3b servers > 50% (max over locations)", max_b, 3 * config.scale);

  const auto persistent = analysis::persistent_failures(diffs, vantages, 50.0);
  std::printf("\npersistently ECT-unreachable from every vantage: %zu servers\n",
              persistent.size());
  const auto truth = scenario::World(params).ground_truth_firewalled();
  int recovered = 0;
  for (const auto& addr : persistent) {
    const bool is_truth = std::find(truth.begin(), truth.end(), addr) != truth.end();
    recovered += is_truth ? 1 : 0;
    std::printf("  %-15s %s\n", addr.to_string().c_str(),
                is_truth ? "(ground truth: ECT-UDP firewall)" : "(transient)");
  }
  std::printf("ground-truth firewalled servers rediscovered: %d of %zu\n", recovered,
              truth.size());

  // The paper: "around 4x more servers transiently unreachable" than
  // persistently. Transient = ever differential but never above 50%.
  int transient = 0;
  for (std::size_t row = 0; row < diffs.size(); ++row) {
    const double pct = diffs.total(row).plain_not_ect_pct().value_or(0.0);
    if (pct > 0.0 && pct <= 50.0) ++transient;
  }
  std::printf("\ntransiently vs persistently ECT-unreachable servers: %d vs %zu "
              "(paper: ~4x more transient)\n",
              transient, persistent.size());
  return 0;
}
