// Synthetic Internet topology: a three-tier AS graph (global transit,
// regional transit, stub/access networks) with a handful of routers per AS,
// inter-AS links between border routers, address allocation per AS, and a
// routing oracle backed by a router-indexed forwarding table: one lazily
// built next-hop tree per destination router. This is the substrate the
// measurement campaign runs over; the scenario module places middleboxes on
// its interfaces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecnprobe/geo/geo.hpp"
#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/netsim/network.hpp"
#include "ecnprobe/netsim/router.hpp"
#include "ecnprobe/netsim/sim.hpp"
#include "ecnprobe/topology/ip2as.hpp"
#include "ecnprobe/util/rng.hpp"

namespace ecnprobe::topology {

struct AsInfo {
  Asn asn = 0;
  int tier = 3;  ///< 1 = global transit, 2 = regional transit, 3 = stub
  geo::Region region = geo::Region::Unknown;
  wire::Ipv4Address prefix;
  int prefix_len = 18;
  std::vector<netsim::NodeId> routers;
};

/// An interface endpoint, used to enumerate policy attachment points.
struct InterfaceRef {
  netsim::NodeId node = netsim::kInvalidNode;
  int if_index = netsim::kNoInterface;
};

/// A link between two ASes (border router pair), the natural home of the
/// ECN bleaching the paper localises to AS boundaries.
struct InterAsLink {
  InterfaceRef a;
  InterfaceRef b;
  Asn asn_a = 0;
  Asn asn_b = 0;
};

struct TopologyParams {
  int tier1_count = 8;
  int tier2_per_region = 5;
  int stub_count = 400;             ///< stub (server-hosting) ASes
  int routers_per_tier1 = 5;
  int routers_per_tier2 = 4;
  int routers_per_stub = 2;
  int tier1_uplinks_per_tier2 = 2;  ///< tier2 -> tier1 attachments
  int tier2_uplinks_per_stub = 2;   ///< stub -> tier2 attachments
  double tier2_peering_prob = 0.25; ///< extra tier2 <-> tier2 links in-region
  /// Routers answer TTL expiry with this probability, drawn per router from
  /// [min, max]; models disabled/rate-limited ICMP generation (calibrates
  /// the responding-hop count of Figure 4).
  double icmp_response_prob_min = 0.22;
  double icmp_response_prob_max = 0.40;
};

class Internet {
public:
  /// Builds the AS graph, routers, links, and address plan. The Network and
  /// all nodes live inside the returned object.
  static std::unique_ptr<Internet> build(netsim::Simulator& sim,
                                         const TopologyParams& params, util::Rng rng);

  netsim::Network& net() { return net_; }
  netsim::Simulator& sim() { return sim_; }

  const std::vector<AsInfo>& ases() const { return ases_; }
  const AsInfo& as_info(Asn asn) const;
  const std::vector<InterAsLink>& inter_as_links() const { return inter_as_links_; }
  /// All intra-AS router-to-router interface endpoints (both directions).
  const std::vector<InterfaceRef>& intra_as_interfaces() const {
    return intra_as_interfaces_;
  }

  /// Stub ASes of a region (hosts attach only to stubs).
  std::vector<Asn> stub_ases(geo::Region region) const;
  std::vector<Asn> stub_ases() const;

  /// Attaches a host to a router of `asn` with the given access link,
  /// assigns it an address from the AS block, and records the attachment.
  struct Attachment {
    netsim::NodeId host = netsim::kInvalidNode;
    netsim::NodeId router = netsim::kInvalidNode;
    int router_if = netsim::kNoInterface;  ///< interface on router toward host
    int host_if = netsim::kNoInterface;    ///< interface on host toward router
    Asn asn = 0;
  };
  Attachment attach_host(Asn asn, std::unique_ptr<netsim::Host> host,
                         const netsim::LinkParams& access);

  const Attachment* attachment_of(wire::Ipv4Address host_addr) const;

  /// Ground-truth AS of an address (router or host).
  std::optional<Asn> asn_of(wire::Ipv4Address addr) const { return ip2as_.lookup(addr); }

  /// Ground-truth AS of a router node.
  std::optional<Asn> asn_of_router(netsim::NodeId node) const {
    if (!is_router(node)) return std::nullopt;
    return router_asn_[node];
  }
  const IpToAsMap& ip2as() const { return ip2as_; }

  /// Ground truth: is the link out of (node, if) an inter-AS link?
  bool is_inter_as_interface(netsim::NodeId node, int if_index) const;

  /// Drops all cached shortest-path trees. Call after changing link state
  /// (set_link_up) so traffic reroutes around failures -- the mechanism
  /// behind route-change experiments. Tree construction skips down links.
  void invalidate_routes() { trees_.assign(trees_.size(), {}); }

  std::size_t router_count() const { return router_asn_.size(); }

private:
  Internet(netsim::Simulator& sim, util::Rng rng);

  void build_graph(const TopologyParams& params);
  wire::Ipv4Address allocate_address(Asn asn);
  netsim::NodeId add_router(AsInfo& as, const TopologyParams& params);
  void connect_routers(netsim::NodeId a, netsim::NodeId b, const netsim::LinkParams& link,
                       bool inter_as, Asn asn_a, Asn asn_b);
  int route_oracle(netsim::NodeId at, wire::Ipv4Address dst);
  const std::vector<std::int16_t>& tree_toward(netsim::NodeId dest_router);
  bool is_router(netsim::NodeId node) const { return node < router_asn_.size(); }

  netsim::Simulator& sim_;
  util::Rng rng_;
  netsim::Network net_;

  std::vector<AsInfo> ases_;
  std::map<Asn, std::size_t> as_index_;
  std::map<Asn, std::uint32_t> next_host_addr_;  ///< allocation cursor per AS

  // Routers are built before any host is attached, so their node ids are
  // 0..router_count()-1 and a router's ordinal is its node id: every
  // router-keyed table below is a plain vector indexed by it.
  std::vector<Asn> router_asn_;
  // Router-graph adjacency for BFS: per router, (neighbor, egress_if) pairs.
  std::vector<std::vector<std::pair<netsim::NodeId, int>>> adjacency_;

  std::vector<InterAsLink> inter_as_links_;
  std::vector<InterfaceRef> intra_as_interfaces_;
  std::map<std::uint64_t, bool> inter_as_if_;  ///< (node<<32|if) -> inter-AS?

  std::unordered_map<std::uint32_t, Attachment> attachments_;  ///< host addr -> attachment

  // The forwarding table: trees_[d] holds, per router, the egress interface
  // toward router d (kNoInterface if unreachable), or is empty until a
  // packet first needs it. Router-to-router interfaces are created before
  // any host link, so their indices are small; connect_routers() checks
  // that each fits the int16_t entry.
  std::vector<std::vector<std::int16_t>> trees_;

  IpToAsMap ip2as_;
};

}  // namespace ecnprobe::topology
