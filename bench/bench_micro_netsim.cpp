// Micro-benchmarks of the simulation engine: event throughput, end-to-end
// datagram forwarding, policy overhead, and full four-way probe cost --
// the numbers that size a paper-scale campaign run.
//
// Two modes:
//   bench_micro_netsim [google-benchmark flags]   interactive tables
//   bench_micro_netsim --bench-json=PATH          BENCH_netsim.json metrics,
//     including the calendar-vs-heap scheduler comparison the performance
//     trajectory is pinned on (docs/performance.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "ecnprobe/measure/probe.hpp"
#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/netsim/network.hpp"
#include "ecnprobe/netsim/router.hpp"
#include "ecnprobe/ntp/ntp.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace {

using namespace ecnprobe;
using namespace ecnprobe::util::literals;

void BM_EventScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(util::SimDuration::micros(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventScheduleRun);

// One UDP datagram across an N-router chain, including ICMP-free forwarding
// and delivery.
void BM_ChainForwarding(benchmark::State& state) {
  const int n_routers = static_cast<int>(state.range(0));
  netsim::Simulator sim;
  netsim::Network net(sim, util::Rng(1));

  auto host_a = std::make_unique<netsim::Host>("a", netsim::Host::Params{}, util::Rng(2));
  auto host_b = std::make_unique<netsim::Host>("b", netsim::Host::Params{}, util::Rng(3));
  netsim::Host* a = host_a.get();
  netsim::Host* b = host_b.get();
  const auto ida = net.add_node(std::move(host_a));
  std::vector<netsim::NodeId> routers;
  netsim::NodeId prev = ida;
  for (int i = 0; i < n_routers; ++i) {
    auto router = std::make_unique<netsim::Router>(
        "r", netsim::Router::Params{}, util::Rng(10 + static_cast<unsigned>(i)));
    const auto id = net.add_node(std::move(router));
    net.node(id).set_address(wire::Ipv4Address(12, 0, 1, static_cast<std::uint8_t>(i)));
    net.connect(prev, id, netsim::LinkParams{});
    routers.push_back(id);
    prev = id;
  }
  const auto idb = net.add_node(std::move(host_b));
  a->set_address(wire::Ipv4Address(10, 0, 0, 1));
  b->set_address(wire::Ipv4Address(11, 0, 0, 1));
  net.connect(prev, idb, netsim::LinkParams{});
  net.set_routing_oracle([&](netsim::NodeId at, wire::Ipv4Address dst) -> int {
    (void)at;
    return dst == b->address() ? 1 : 0;
  });
  auto sink = b->open_udp(9);

  const std::vector<std::uint8_t> payload(48, 0);
  for (auto _ : state) {
    auto socket = a->open_udp();
    socket->send(b->address(), 9, payload, wire::Ecn::Ect0);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n_routers + 1));
}
BENCHMARK(BM_ChainForwarding)->Arg(4)->Arg(16);

void BM_PolicyChainApplication(benchmark::State& state) {
  netsim::EcnBleachPolicy bleach(0.5);
  netsim::EctUdpDropPolicy drop(0.0);  // match but never drop
  netsim::TosSensitiveDropPolicy tos(0.0);
  util::Rng rng(7);
  auto dgram = wire::make_udp_datagram(wire::Ipv4Address(1, 1, 1, 1),
                                       wire::Ipv4Address(2, 2, 2, 2), 1, 2,
                                       std::vector<std::uint8_t>(48, 0),
                                       wire::Ecn::Ect0);
  for (auto _ : state) {
    auto copy = dgram;
    benchmark::DoNotOptimize(bleach.apply(copy, rng));
    benchmark::DoNotOptimize(drop.apply(copy, rng));
    benchmark::DoNotOptimize(tos.apply(copy, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_PolicyChainApplication);

// Full four-way probe of one server through the small calibrated world --
// the unit of campaign work.
void BM_FourWayServerProbe(benchmark::State& state) {
  auto params = scenario::WorldParams::small(77);
  params.server_count = 16;
  params.offline_prob = 0.0;
  scenario::World world(params);
  auto& vantage = world.vantage("UGla wired");
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto server = world.server_addresses()[cursor++ % 16];
    bool done = false;
    measure::probe_server(vantage, server, measure::ProbeOptions{},
                          [&](const measure::ServerResult&) { done = true; });
    world.sim().run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FourWayServerProbe);

// World construction cost at increasing scale.
void BM_WorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto params = scenario::WorldParams::paper().scaled(
        static_cast<double>(state.range(0)) / 100.0);
    scenario::World world(params);
    benchmark::DoNotOptimize(world.net().node_count());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

// -- --bench-json mode --------------------------------------------------------

/// One timer of a shape: how long it waits, through which call it enters
/// the queue, and whether it is cancelled before it fires.
struct TimerDraw {
  util::SimDuration delay;
  bool handle = false;     ///< schedule() with a cancellation handle, else post()
  bool cancelled = false;  ///< cancelled at once; the scheduler reaps it at `delay`
};

/// A timer population for the scheduler comparison: `timers` concurrent
/// self-rescheduling timers. Each fire re-arms its timer with the next live
/// draw of `draws`, filing (and at once cancelling) the cancelled draws it
/// passes on the way.
struct TimerShape {
  int timers;
  std::vector<TimerDraw> draws;  ///< 1024 entries, cycled
};

/// A 50k-timer storm at the 100us..50ms link/pacing timescales: the
/// population the calendar queue's default wheel is sized for. Its edge over
/// the heap peaks here (2x+) and narrows past ~500k pending, where the
/// 200-byte events outgrow the cache (docs/performance.md). `handles`
/// selects schedule() for every timer, else post().
TimerShape storm_shape(bool handles) {
  util::Rng rng(7);
  TimerShape shape{50'000, {}};
  for (int i = 0; i < 1024; ++i) {
    shape.draws.push_back({util::SimDuration::nanos(
                               100'000 + static_cast<std::int64_t>(rng.next_below(49'900'000))),
                           handles});
  }
  return shape;
}

/// The events one perfbench paper_campaign pass files in its Simulator
/// (2500 servers x 17 traces, world seed 1: 6,717,531 events, cancelled
/// timers included), by scheduling call, delay and fate, in percent. They
/// were recorded by counting every popped event's delay (when -
/// scheduled_at) into 16 log buckets per octave.
struct CampaignMixRow {
  double percent;
  std::int64_t lo_ns, hi_ns;  ///< delays log-uniform in [lo, hi), or exactly lo
  bool handle;
  bool cancelled;
};
constexpr std::int64_t kMs = 1'000'000;
constexpr CampaignMixRow kCampaignMix[] = {
    // post(): packet hops, 0.26..67 ms, one row per octave.
    {0.591, 1 << 18, 1 << 19, false, false},
    {5.049, 1 << 19, 1 << 20, false, false},
    {14.130, 1 << 20, 1 << 21, false, false},
    {15.741, 1 << 21, 1 << 22, false, false},
    {21.206, 1 << 22, 1 << 23, false, false},
    {24.317, 1 << 23, 1 << 24, false, false},
    {6.179, 1 << 24, 1 << 25, false, false},
    {1.979, 1 << 25, 1 << 26, false, false},
    // schedule(), fired: the 50 ms gap between a probe's tests, and 1 s
    // and 2 s protocol timers that ran out.
    {1.898, 50 * kMs, 50 * kMs, true, false},
    {0.880, 1000 * kMs, 1000 * kMs, true, false},
    {1.323, 2000 * kMs, 2000 * kMs, true, false},
    // schedule(), cancelled when the awaited answer arrived and reaped at the
    // deadline: 1 s and 2 s protocol timers and 15 s HTTP deadlines. (4 s and
    // 8 s backoffs, under 0.01% together, are left out.)
    {5.348, 1000 * kMs, 1000 * kMs, true, true},
    {0.091, 2000 * kMs, 2000 * kMs, true, true},
    {1.265, 15000 * kMs, 15000 * kMs, true, true},
};

/// The campaign's own event mix (kCampaignMix) at its mean queue depth.
/// Five timers keep ~34 events pending on average, the campaign's mean at
/// each push (median 32, peak 119): the cancelled timers in flight, most of
/// them far beyond the wheel's horizon, make up the rest. Consecutive events
/// are usually many empty buckets apart, so this shape prices finding the
/// next one. Both schedulers run the same calls, so the ratio is the
/// scheduler's alone.
TimerShape sparse_shape() {
  util::Rng rng(8);
  TimerShape shape{5, {}};
  double total = 0.0;
  for (const auto& row : kCampaignMix) total += row.percent;
  // Each row's share of the 1024 draws, rounded on the running sum so the
  // draws add up exactly.
  double cumulative = 0.0;
  std::size_t filled = 0;
  for (const auto& row : kCampaignMix) {
    cumulative += row.percent;
    const auto end = static_cast<std::size_t>(std::lround(cumulative / total * 1024));
    for (; filled < end; ++filled) {
      const double ns = row.hi_ns > row.lo_ns
                            ? std::exp(rng.uniform(std::log(static_cast<double>(row.lo_ns)),
                                                   std::log(static_cast<double>(row.hi_ns))))
                            : static_cast<double>(row.lo_ns);
      shape.draws.push_back({util::SimDuration::nanos(static_cast<std::int64_t>(ns)),
                             row.handle, row.cancelled});
    }
  }
  rng.shuffle(shape.draws);
  return shape;
}

/// One scheduler's run of a timer shape.
struct TimerRun {
  double events_per_sec;  ///< fired events/s; reaping cancelled timers is timed too
  double words_per_pop;   ///< calendar bitmap words tested per queue pop (0 on the heap)
};

/// Steady-state timer throughput of `shape` on one scheduler.
TimerRun run_timers(netsim::SchedulerKind kind, const TimerShape& shape,
                    std::uint64_t budget) {
  netsim::Simulator sim(kind);

  // Self-rescheduling timer state shared by reference: the per-event
  // closure is one pointer, so it rides the schedulers' inline storage on
  // both paths and the comparison isolates the scheduling machinery itself.
  struct TickState {
    netsim::Simulator& sim;
    const std::vector<TimerDraw>& draws;
    std::uint64_t remaining;
    std::uint64_t cursor = 0;
    std::uint64_t cancelled = 0;  ///< filed cancelled, popped by the run as reaps
    void fire() {
      if (remaining == 0) return;
      --remaining;
      for (;;) {
        const TimerDraw& draw = draws[cursor++ & 1023];
        if (draw.cancelled) {
          sim.schedule(draw.delay, [] {}).cancel();
          ++cancelled;
        } else if (draw.handle) {
          (void)sim.schedule(draw.delay, [this] { fire(); });
          return;
        } else {
          sim.post(draw.delay, [this] { fire(); });
          return;
        }
      }
    }
  };
  TickState tick{sim, shape.draws, budget};
  for (int i = 0; i < shape.timers; ++i) tick.fire();

  const bench::Stopwatch timer;
  sim.run();
  const double seconds = timer.seconds();
  const auto fired = static_cast<double>(sim.events_processed());
  return {seconds > 0.0 ? fired / seconds : 0.0,
          static_cast<double>(sim.bitmap_words_tested()) /
              (fired + static_cast<double>(tick.cancelled))};
}

/// Full four-way probes through the small calibrated world; returns
/// {probes/sec, sim events per probe}. The event count is a pure function
/// of the seed -- machine-independent, so it is a guarded metric.
std::pair<double, double> probe_throughput(int probes) {
  auto params = scenario::WorldParams::small(77);
  params.server_count = 16;
  params.offline_prob = 0.0;
  scenario::World world(params);
  auto& vantage = world.vantage("UGla wired");
  const auto servers = world.server_addresses();
  const std::uint64_t events_before = world.sim().events_processed();
  const bench::Stopwatch timer;
  for (int i = 0; i < probes; ++i) {
    measure::probe_server(vantage, servers[static_cast<std::size_t>(i) % servers.size()],
                          measure::ProbeOptions{}, [](const measure::ServerResult&) {});
    world.sim().run();
  }
  const double seconds = timer.seconds();
  const auto events = world.sim().events_processed() - events_before;
  return {seconds > 0.0 ? probes / seconds : 0.0,
          static_cast<double>(events) / probes};
}

/// Adds the calendar's throughput on `calendar_shape`, the heap's on
/// `legacy_shape`, their guarded ratio, and the calendar's bitmap words
/// tested per pop. The ratios gate CI, so squeeze scheduler noise out: the
/// rounds interleave the two schedulers, alternating which runs first, and
/// keep each one's best. The word count is deterministic -- every round
/// reads the same -- and is guarded exactly: walking empty buckets instead
/// of jumping to the next occupied one changes it whatever the host's speed.
void add_scheduler_comparison(bench::BenchJson& json, const TimerShape& calendar_shape,
                              const TimerShape& legacy_shape, const std::string& suffix) {
  constexpr std::uint64_t kBudget = 1'000'000;
  constexpr int kRounds = 9;
  double overhauled = 0.0, legacy = 0.0, words_per_pop = 0.0;
  const auto run_calendar = [&] {
    const TimerRun run =
        run_timers(netsim::SchedulerKind::Calendar, calendar_shape, kBudget);
    overhauled = std::max(overhauled, run.events_per_sec);
    words_per_pop = run.words_per_pop;
  };
  const auto run_legacy = [&] {
    legacy = std::max(legacy, run_timers(netsim::SchedulerKind::LegacyHeap, legacy_shape,
                                         kBudget).events_per_sec);
  };
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      run_calendar();
      run_legacy();
    } else {
      run_legacy();
      run_calendar();
    }
  }
  const double speedup = legacy > 0.0 ? overhauled / legacy : 0.0;
  json.add("sim_events_per_sec_calendar" + suffix, overhauled, "events/s");
  json.add("sim_events_per_sec_legacy" + suffix, legacy, "events/s");
  json.add("calendar_vs_legacy_speedup" + suffix, speedup, "x", /*guarded=*/true);
  json.add_exact("calendar_bitmap_words_per_pop" + suffix, words_per_pop, "count");
  std::printf("%d timers: calendar %.3g ev/s, legacy heap %.3g ev/s, speedup %.2fx, "
              "%.6f bitmap words per pop\n",
              calendar_shape.timers, overhauled, legacy, speedup, words_per_pop);
}

int run_bench_json(const std::string& path) {
  bench::BenchJson json("netsim");
  // The storm compares the seed's hot path (heap + a schedule() control
  // block per event) against the overhauled one (calendar + post()).
  add_scheduler_comparison(json, storm_shape(/*handles=*/false), storm_shape(/*handles=*/true),
                           "");
  const TimerShape sparse = sparse_shape();
  add_scheduler_comparison(json, sparse, sparse, "_sparse");
  const auto [probes_per_sec, events_per_probe] = probe_throughput(400);
  json.add("probes_per_sec", probes_per_sec, "probes/s");
  json.add("sim_events_per_probe", events_per_probe, "events",
           /*guarded=*/true);
  return json.write(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ecnprobe::bench::take_bench_json_arg(&argc, argv);
  if (!json_path.empty()) return run_bench_json(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
