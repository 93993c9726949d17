#include "ecnprobe/traceroute/traceroute.hpp"

#include <gtest/gtest.h>

#include "../netsim/mini_net.hpp"
#include "ecnprobe/chaos/policies.hpp"

namespace ecnprobe::traceroute {
namespace {

using netsim::testutil::Chain;

TracerouteOptions fast_options() {
  TracerouteOptions options;
  options.timeout = util::SimDuration::millis(200);
  options.max_ttl = 12;
  return options;
}

TEST(Traceroute, DiscoversAllRespondingHopsInOrder) {
  Chain chain(4);
  Tracerouter tracer(*chain.host_a);
  std::optional<PathRecord> record;
  tracer.trace(chain.host_b->address(), fast_options(),
               [&](const PathRecord& r) { record = r; });
  chain.sim.run();
  ASSERT_TRUE(record);
  ASSERT_GE(record->hops.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto& hop = record->hops[static_cast<std::size_t>(i)];
    EXPECT_TRUE(hop.responded);
    EXPECT_EQ(hop.ttl, i + 1);
    EXPECT_EQ(hop.responder,
              chain.net.node(chain.routers[static_cast<std::size_t>(i)]).address());
    EXPECT_TRUE(hop.ecn_intact());  // clean path: ECT(0) everywhere
  }
  EXPECT_EQ(record->responding_hops(), 4);
}

TEST(Traceroute, StripDetectedDownstreamOfBleacher) {
  Chain chain(4);
  // Bleacher between router 1 and router 2.
  chain.net.add_egress_policy(chain.routers[1], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(1.0));
  Tracerouter tracer(*chain.host_a);
  std::optional<PathRecord> record;
  tracer.trace(chain.host_b->address(), fast_options(),
               [&](const PathRecord& r) { record = r; });
  chain.sim.run();
  ASSERT_TRUE(record);
  ASSERT_GE(record->hops.size(), 4u);
  // Hops 1,2 (routers 0,1) saw the intact mark; hops 3,4 the bleached one --
  // the paper's "runs of red after the mark has been stripped".
  EXPECT_TRUE(record->hops[0].ecn_intact());
  EXPECT_TRUE(record->hops[1].ecn_intact());
  EXPECT_FALSE(record->hops[2].ecn_intact());
  EXPECT_EQ(record->hops[2].quoted_ecn, wire::Ecn::NotEct);
  EXPECT_FALSE(record->hops[3].ecn_intact());
}

TEST(Traceroute, SilentRoutersShowAsNoResponse) {
  Chain silent(4, /*icmp_prob=*/0.0);
  Tracerouter tracer(*silent.host_a);
  std::optional<PathRecord> record;
  auto options = fast_options();
  options.stop_after_silent = 3;
  tracer.trace(silent.host_b->address(), options,
               [&](const PathRecord& r) { record = r; });
  silent.sim.run();
  ASSERT_TRUE(record);
  // All routers silent: the trace gives up after stop_after_silent hops.
  EXPECT_EQ(record->hops.size(), 3u);
  for (const auto& hop : record->hops) EXPECT_FALSE(hop.responded);
  EXPECT_EQ(record->responding_hops(), 0);
}

TEST(Traceroute, StopsOneHopBeforeSilentDestination) {
  Chain chain(3);
  Tracerouter tracer(*chain.host_a);
  std::optional<PathRecord> record;
  auto options = fast_options();
  options.stop_after_silent = 2;
  tracer.trace(chain.host_b->address(), options,
               [&](const PathRecord& r) { record = r; });
  chain.sim.run();
  ASSERT_TRUE(record);
  EXPECT_FALSE(record->reached_destination);  // pool hosts do not answer
  // 3 responding router hops, then silence.
  EXPECT_EQ(record->responding_hops(), 3);
  EXPECT_EQ(record->hops.back().responded, false);
}

TEST(Traceroute, DestinationPortUnreachableEndsTrace) {
  Chain chain(2);
  // A destination that *does* send port-unreachable.
  netsim::Host::Params params;
  params.udp_port_unreachable = true;
  // Rebuild host B is complex; instead flip its params via a new chain: the
  // fixture does not support it, so exercise via direct construction.
  netsim::Simulator sim;
  netsim::Network net(sim, util::Rng(1));
  auto a = std::make_unique<netsim::Host>("a", netsim::Host::Params{}, util::Rng(2));
  auto b = std::make_unique<netsim::Host>("b", params, util::Rng(3));
  netsim::Host* host_a = a.get();
  netsim::Host* host_b = b.get();
  const auto ida = net.add_node(std::move(a));
  const auto idb = net.add_node(std::move(b));
  host_a->set_address(wire::Ipv4Address(10, 0, 0, 1));
  host_b->set_address(wire::Ipv4Address(11, 0, 0, 1));
  net.connect(ida, idb, netsim::LinkParams{});

  Tracerouter tracer(*host_a);
  std::optional<PathRecord> record;
  tracer.trace(host_b->address(), fast_options(),
               [&](const PathRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record);
  EXPECT_TRUE(record->reached_destination);
  ASSERT_FALSE(record->hops.empty());
  EXPECT_EQ(record->hops.back().responder, host_b->address());
}

TEST(Traceroute, RetriesRecoverLossyHops) {
  netsim::LinkParams lossy;
  lossy.loss_rate = 0.3;
  Chain chain(3, 1.0, lossy);
  Tracerouter tracer(*chain.host_a);
  auto options = fast_options();
  options.probes_per_hop = 4;
  std::optional<PathRecord> record;
  tracer.trace(chain.host_b->address(), options,
               [&](const PathRecord& r) { record = r; });
  chain.sim.run();
  ASSERT_TRUE(record);
  EXPECT_GE(record->responding_hops(), 2);  // retries beat 30% loss
}

TEST(Traceroute, TruncatedQuotesToleratedAsEcnUnknown) {
  Chain chain(4);
  // Every ICMP error heading back to host A through router 0 has its
  // quotation cut below a full inner IP header -- the RFC 1812 violation
  // some real routers commit.
  auto truncate = std::make_shared<ecnprobe::chaos::QuoteTruncatePolicy>(1.0);
  truncate->on_epoch(7);
  chain.net.add_egress_policy(chain.routers[0], 0, truncate);

  Tracerouter tracer(*chain.host_a);
  std::optional<PathRecord> record;
  tracer.trace(chain.host_b->address(), fast_options(),
               [&](const PathRecord& r) { record = r; });
  chain.sim.run();
  ASSERT_TRUE(record);
  ASSERT_GE(record->hops.size(), 4u);
  int truncated = 0;
  for (int i = 0; i < 4; ++i) {
    const auto& hop = record->hops[static_cast<std::size_t>(i)];
    // The hop still counts as responding -- probes are matched to the sole
    // in-flight probe -- but its ECN field is unobserved, so it reads as
    // neither intact nor bleached.
    EXPECT_TRUE(hop.responded) << "hop " << i;
    EXPECT_EQ(hop.responder,
              chain.net.node(chain.routers[static_cast<std::size_t>(i)]).address());
    if (hop.quote_truncated) {
      ++truncated;
      EXPECT_FALSE(hop.ecn_known) << "hop " << i;
      EXPECT_FALSE(hop.ecn_intact()) << "hop " << i;
    }
  }
  // Replies from routers 1..3 traverse the truncating link; router 0's own
  // reply may or may not, depending on where it originates.
  EXPECT_GE(truncated, 3);
}

TEST(Traceroute, ConcurrentTracesMatchByPortAndDropAmbiguousTruncatedQuotes) {
  // Two traces in flight from one host: a full quote is matched to its
  // probe by the quoted UDP source port...
  Chain clean(4);
  Tracerouter clean_tracer(*clean.host_a);
  std::vector<PathRecord> records;
  for (int i = 0; i < 2; ++i) {
    clean_tracer.trace(clean.host_b->address(), fast_options(),
                       [&](const PathRecord& r) { records.push_back(r); });
  }
  clean.sim.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    ASSERT_EQ(record.responding_hops(), 4);  // as a lone trace sees it
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(record.hops[i].responder, clean.net.node(clean.routers[i]).address());
    }
  }

  // ...but a quote cut before the ports could belong to either probe, so
  // it is dropped and the hop reads as silent.
  Chain chain(4);
  auto truncate = std::make_shared<ecnprobe::chaos::QuoteTruncatePolicy>(1.0);
  truncate->on_epoch(7);
  chain.net.add_egress_policy(chain.routers[0], 0, truncate);
  Tracerouter tracer(*chain.host_a);
  records.clear();
  for (int i = 0; i < 2; ++i) {
    tracer.trace(chain.host_b->address(), fast_options(),
                 [&](const PathRecord& r) { records.push_back(r); });
  }
  chain.sim.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    ASSERT_GE(record.hops.size(), 4u);
    for (std::size_t i = 1; i < 4; ++i) EXPECT_FALSE(record.hops[i].responded) << i;
  }
}

TEST(Traceroute, SometimesStripObservedAcrossRepetitions) {
  Chain chain(3);
  chain.net.add_egress_policy(chain.routers[0], 1,
                              std::make_shared<netsim::EcnBleachPolicy>(0.5));
  Tracerouter tracer(*chain.host_a);
  int intact_at_hop2 = 0;
  int stripped_at_hop2 = 0;
  int done = 0;
  const int reps = 40;
  std::function<void(int)> run = [&](int remaining) {
    if (remaining == 0) return;
    tracer.trace(chain.host_b->address(), fast_options(), [&, remaining](const PathRecord& r) {
      ++done;
      if (r.hops.size() >= 2 && r.hops[1].responded) {
        (r.hops[1].ecn_intact() ? intact_at_hop2 : stripped_at_hop2)++;
      }
      run(remaining - 1);
    });
  };
  run(reps);
  chain.sim.run();
  EXPECT_EQ(done, reps);
  // A probabilistic bleacher shows both behaviours -- the paper's 125
  // "sometimes strip" hops.
  EXPECT_GT(intact_at_hop2, 0);
  EXPECT_GT(stripped_at_hop2, 0);
}

}  // namespace
}  // namespace ecnprobe::traceroute
