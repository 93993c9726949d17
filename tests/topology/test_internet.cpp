#include "ecnprobe/topology/internet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

namespace ecnprobe::topology {
namespace {

TopologyParams small_params() {
  TopologyParams p;
  p.tier1_count = 3;
  p.tier2_per_region = 2;
  p.stub_count = 18;
  p.routers_per_tier1 = 3;
  p.routers_per_tier2 = 2;
  p.routers_per_stub = 2;
  p.icmp_response_prob_min = 1.0;
  p.icmp_response_prob_max = 1.0;
  return p;
}

class InternetTest : public ::testing::Test {
protected:
  void SetUp() override {
    internet = Internet::build(sim, small_params(), util::Rng(7));
  }
  netsim::Simulator sim;
  std::unique_ptr<Internet> internet;
};

TEST_F(InternetTest, BuildsExpectedAsCounts) {
  int tier1 = 0;
  int tier2 = 0;
  int stubs = 0;
  for (const auto& as : internet->ases()) {
    if (as.tier == 1) ++tier1;
    else if (as.tier == 2) ++tier2;
    else ++stubs;
  }
  EXPECT_EQ(tier1, 3);
  EXPECT_EQ(tier2, 2 * 6);  // per region x 6 regions
  EXPECT_EQ(stubs, 18);
}

TEST_F(InternetTest, EveryRegionHasAtLeastOneStub) {
  for (const auto region :
       {geo::Region::Europe, geo::Region::NorthAmerica, geo::Region::Asia,
        geo::Region::Australia, geo::Region::SouthAmerica, geo::Region::Africa}) {
    EXPECT_FALSE(internet->stub_ases(region).empty()) << geo::to_string(region);
  }
}

TEST_F(InternetTest, AddressesMapToOwningAs) {
  for (const auto& as : internet->ases()) {
    for (const auto router : as.routers) {
      const auto addr = internet->net().node(router).address();
      EXPECT_EQ(internet->asn_of(addr), as.asn);
    }
  }
}

TEST_F(InternetTest, HostsAttachAndGetRoutableAddresses) {
  const auto stubs = internet->stub_ases(geo::Region::Europe);
  ASSERT_FALSE(stubs.empty());
  auto host = std::make_unique<netsim::Host>("h", netsim::Host::Params{}, util::Rng(1));
  netsim::Host* raw = host.get();
  const auto attachment =
      internet->attach_host(stubs[0], std::move(host), netsim::LinkParams{});
  EXPECT_NE(attachment.host, netsim::kInvalidNode);
  EXPECT_FALSE(raw->address().is_unspecified());
  EXPECT_EQ(internet->asn_of(raw->address()), stubs[0]);
  EXPECT_NE(internet->attachment_of(raw->address()), nullptr);
}

TEST_F(InternetTest, EndToEndDeliveryAcrossRegions) {
  // Attach one host in Europe and one in Australia and exchange a packet.
  auto h1 = std::make_unique<netsim::Host>("eu", netsim::Host::Params{}, util::Rng(1));
  auto h2 = std::make_unique<netsim::Host>("au", netsim::Host::Params{}, util::Rng(2));
  netsim::Host* eu = h1.get();
  netsim::Host* au = h2.get();
  internet->attach_host(internet->stub_ases(geo::Region::Europe)[0], std::move(h1),
                        netsim::LinkParams{});
  internet->attach_host(internet->stub_ases(geo::Region::Australia)[0], std::move(h2),
                        netsim::LinkParams{});

  auto server = au->open_udp(123);
  bool received = false;
  server->set_receive_handler([&](const netsim::UdpDelivery& d) {
    received = true;
    server->send(d.src, d.src_port, d.payload, wire::Ecn::NotEct);
  });
  auto client = eu->open_udp();
  bool replied = false;
  client->set_receive_handler([&](const netsim::UdpDelivery&) { replied = true; });
  client->send(au->address(), 123, {}, wire::Ecn::Ect0);
  sim.run();
  EXPECT_TRUE(received);
  EXPECT_TRUE(replied);
}

TEST_F(InternetTest, EcnMarkSurvivesCleanPath) {
  auto h1 = std::make_unique<netsim::Host>("a", netsim::Host::Params{}, util::Rng(3));
  auto h2 = std::make_unique<netsim::Host>("b", netsim::Host::Params{}, util::Rng(4));
  netsim::Host* a = h1.get();
  netsim::Host* b = h2.get();
  internet->attach_host(internet->stub_ases(geo::Region::Asia)[0], std::move(h1),
                        netsim::LinkParams{});
  internet->attach_host(internet->stub_ases(geo::Region::NorthAmerica)[0], std::move(h2),
                        netsim::LinkParams{});
  auto server = b->open_udp(123);
  wire::Ecn seen = wire::Ecn::NotEct;
  server->set_receive_handler([&](const netsim::UdpDelivery& d) { seen = d.ecn; });
  auto client = a->open_udp();
  client->send(b->address(), 123, {}, wire::Ecn::Ect0);
  sim.run();
  // No bleachers installed by the bare topology: the mark must survive.
  EXPECT_EQ(seen, wire::Ecn::Ect0);
}

TEST_F(InternetTest, InterAsLinksAreGroundTruthBoundaries) {
  ASSERT_FALSE(internet->inter_as_links().empty());
  for (const auto& link : internet->inter_as_links()) {
    EXPECT_NE(link.asn_a, link.asn_b);
    EXPECT_TRUE(internet->is_inter_as_interface(link.a.node, link.a.if_index));
    EXPECT_TRUE(internet->is_inter_as_interface(link.b.node, link.b.if_index));
  }
  for (const auto& iface : internet->intra_as_interfaces()) {
    EXPECT_FALSE(internet->is_inter_as_interface(iface.node, iface.if_index));
  }
}

TEST_F(InternetTest, RouterAddressesAreUnique) {
  std::set<std::uint32_t> seen;
  for (const auto& as : internet->ases()) {
    for (const auto router : as.routers) {
      const auto addr = internet->net().node(router).address().value();
      EXPECT_TRUE(seen.insert(addr).second) << "duplicate router address";
    }
  }
}

TEST_F(InternetTest, DeterministicForSameSeed) {
  netsim::Simulator sim2;
  auto other = Internet::build(sim2, small_params(), util::Rng(7));
  ASSERT_EQ(other->ases().size(), internet->ases().size());
  for (std::size_t i = 0; i < other->ases().size(); ++i) {
    EXPECT_EQ(other->ases()[i].asn, internet->ases()[i].asn);
    EXPECT_EQ(other->ases()[i].prefix.value(), internet->ases()[i].prefix.value());
    EXPECT_EQ(other->ases()[i].routers.size(), internet->ases()[i].routers.size());
  }
  EXPECT_EQ(other->inter_as_links().size(), internet->inter_as_links().size());
}

/// Reference next hops toward `dest`: a plain BFS over the router graph as
/// the Network itself records it -- interfaces in index order, host links
/// and down links skipped -- giving each router its first interface back
/// to the router it was discovered from; kNoInterface where unreachable.
std::vector<int> reference_egress(netsim::Network& net, const std::vector<bool>& is_router,
                                  netsim::NodeId dest) {
  std::vector<int> egress(net.node_count(), netsim::kNoInterface);
  std::vector<bool> seen(net.node_count(), false);
  std::deque<netsim::NodeId> queue{dest};
  seen[dest] = true;
  while (!queue.empty()) {
    const netsim::NodeId u = queue.front();
    queue.pop_front();
    for (int i = 0; i < static_cast<int>(net.interface_count(u)); ++i) {
      const auto& iface = net.interface(u, i);
      const netsim::NodeId v = iface.peer;
      if (!is_router[v] || seen[v] || !iface.up) continue;
      seen[v] = true;
      for (int j = 0; j < static_cast<int>(net.interface_count(v)); ++j) {
        if (net.interface(v, j).peer == u) {
          egress[v] = j;
          break;
        }
      }
      queue.push_back(v);
    }
  }
  return egress;
}

TEST_F(InternetTest, ForwardingTableMatchesReferenceBfsAcrossLinkChanges) {
  auto& net = internet->net();
  std::vector<Internet::Attachment> hosts;
  for (const auto asn : internet->stub_ases()) {
    auto host = std::make_unique<netsim::Host>("h" + std::to_string(asn),
                                               netsim::Host::Params{}, util::Rng(asn));
    hosts.push_back(internet->attach_host(asn, std::move(host), netsim::LinkParams{}));
  }
  std::vector<netsim::NodeId> routers;
  std::vector<bool> is_router(net.node_count(), false);
  for (const auto& as : internet->ases()) {
    for (const auto router : as.routers) {
      routers.push_back(router);
      is_router[router] = true;
    }
  }
  ASSERT_EQ(routers.size(), internet->router_count());

  // Every (router, destination) egress, destinations being every router
  // address and every attached host; returns the table for comparison.
  const auto check_all = [&](const std::string& phase) {
    SCOPED_TRACE(phase);
    std::vector<int> table;
    for (const auto dest : routers) {
      const auto expected = reference_egress(net, is_router, dest);
      for (const auto at : routers) {
        const int egress = net.route(at, net.node(dest).address());
        EXPECT_EQ(egress, expected[at]) << "router " << at << " toward router " << dest;
        table.push_back(egress);
      }
    }
    for (const auto& host : hosts) {
      const auto expected = reference_egress(net, is_router, host.router);
      const auto addr = net.node(host.host).address();
      for (const auto at : routers) {
        const int want = at == host.router ? host.router_if : expected[at];
        EXPECT_EQ(net.route(at, addr), want) << "router " << at << " toward host " << addr.to_string();
      }
      // Hosts never forward: the oracle has no entry for them.
      EXPECT_EQ(net.route(host.host, net.node(routers.front()).address()),
                netsim::kNoInterface);
    }
    return table;
  };

  const auto intact = check_all("intact");
  // Kill one uplink of a dual-homed stub: traffic must reroute.
  const Asn stub = hosts.front().asn;
  std::vector<const InterAsLink*> uplinks;
  for (const auto& link : internet->inter_as_links()) {
    if (link.asn_a == stub || link.asn_b == stub) uplinks.push_back(&link);
  }
  ASSERT_GE(uplinks.size(), 2u);
  net.set_link_up(uplinks[0]->a.node, uplinks[0]->a.if_index, false);
  internet->invalidate_routes();
  const auto rerouted = check_all("one uplink down");
  EXPECT_NE(rerouted, intact) << "the failed link carried no route";

  // Cut the stub off entirely: its routers become unreachable.
  for (const auto* link : uplinks) net.set_link_up(link->a.node, link->a.if_index, false);
  internet->invalidate_routes();
  const auto isolated = check_all("stub isolated");
  EXPECT_NE(std::count(isolated.begin(), isolated.end(), netsim::kNoInterface),
            std::count(rerouted.begin(), rerouted.end(), netsim::kNoInterface));
}

TEST_F(InternetTest, ReroutesAroundDownLinksAfterInvalidation) {
  // A dual-homed stub must stay reachable when one uplink dies, once the
  // cached trees are invalidated.
  const auto stubs = internet->stub_ases(geo::Region::Europe);
  ASSERT_FALSE(stubs.empty());
  const auto asn = stubs[0];
  auto host = std::make_unique<netsim::Host>("h", netsim::Host::Params{}, util::Rng(9));
  netsim::Host* server_host = host.get();
  internet->attach_host(asn, std::move(host), netsim::LinkParams{});
  auto client_owned =
      std::make_unique<netsim::Host>("c", netsim::Host::Params{}, util::Rng(10));
  netsim::Host* client_host = client_owned.get();
  internet->attach_host(internet->stub_ases(geo::Region::Asia)[0],
                        std::move(client_owned), netsim::LinkParams{});

  auto server = server_host->open_udp(7);
  int received = 0;
  server->set_receive_handler([&](const netsim::UdpDelivery&) { ++received; });
  auto client = client_host->open_udp();

  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  ASSERT_EQ(received, 1);

  // Find the stub's uplinks and kill them one at a time.
  std::vector<const InterAsLink*> uplinks;
  for (const auto& link : internet->inter_as_links()) {
    if (link.asn_a == asn || link.asn_b == asn) uplinks.push_back(&link);
  }
  ASSERT_GE(uplinks.size(), 2u);
  internet->net().set_link_up(uplinks[0]->a.node, uplinks[0]->a.if_index, false);
  internet->invalidate_routes();
  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  EXPECT_EQ(received, 2);  // rerouted over the surviving uplink

  // Restore and verify the original path works again too.
  internet->net().set_link_up(uplinks[0]->a.node, uplinks[0]->a.if_index, true);
  internet->invalidate_routes();
  client->send(server_host->address(), 7, {}, wire::Ecn::NotEct);
  sim.run();
  EXPECT_EQ(received, 3);
}

}  // namespace
}  // namespace ecnprobe::topology
