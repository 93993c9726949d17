#include "ecnprobe/scenario/world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ecnprobe/chaos/policies.hpp"
#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::scenario {

using netsim::LinkParams;
using util::SimDuration;

namespace {

// Paper Table 1 distribution at full scale.
struct RegionCount {
  geo::Region region;
  int count;
};
constexpr RegionCount kPaperRegionCounts[] = {
    {geo::Region::Africa, 22},        {geo::Region::Asia, 190},
    {geo::Region::Australia, 68},     {geo::Region::Europe, 1664},
    {geo::Region::NorthAmerica, 522}, {geo::Region::SouthAmerica, 32},
    {geo::Region::Unknown, 2},
};

std::vector<RegionCount> scaled_region_counts(int server_count) {
  std::vector<RegionCount> out;
  int total = 0;
  for (const auto& rc : kPaperRegionCounts) {
    const int scaled = static_cast<int>(
        std::lround(static_cast<double>(rc.count) * server_count / 2500.0));
    out.push_back({rc.region, scaled});
    total += scaled;
  }
  // Absorb rounding error into Europe (the largest bucket).
  for (auto& rc : out) {
    if (rc.region == geo::Region::Europe) {
      rc.count += server_count - total;
      if (rc.count < 0) rc.count = 0;
    }
  }
  return out;
}

std::string region_zone_label(geo::Region region) {
  switch (region) {
    case geo::Region::Africa: return "africa";
    case geo::Region::Asia: return "asia";
    case geo::Region::Australia: return "oceania";
    case geo::Region::Europe: return "europe";
    case geo::Region::NorthAmerica: return "north-america";
    case geo::Region::SouthAmerica: return "south-america";
    case geo::Region::Unknown: return "";
  }
  return "";
}

struct VantageSpec {
  const char* name;
  geo::Region region;
  double loss;
  double tos_drop;  ///< ToS-sensitive drop probability on the access uplink
  double delay_ms;
  double jitter_ms;
};

// The paper's 13 collection points. McQuistin's home shows congestion plus
// strong preferential dropping of non-zero-ToS packets (Section 4.1's
// conjecture); the campus wireless is a milder version.
constexpr VantageSpec kVantageSpecs[] = {
    {"Perkins home", geo::Region::Europe, 0.004, 0.00, 14.0, 2.0},
    {"McQuistin home", geo::Region::Europe, 0.030, 0.55, 22.0, 6.0},
    {"UGla wired", geo::Region::Europe, 0.002, 0.00, 5.0, 0.5},
    {"UGla wless", geo::Region::Europe, 0.015, 0.39, 8.0, 4.0},
    {"EC2 Cal", geo::Region::NorthAmerica, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Fra", geo::Region::Europe, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Ire", geo::Region::Europe, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Ore", geo::Region::NorthAmerica, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Sao", geo::Region::SouthAmerica, 0.002, 0.00, 4.0, 0.5},
    {"EC2 Sin", geo::Region::Asia, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Syd", geo::Region::Australia, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Tok", geo::Region::Asia, 0.001, 0.00, 3.0, 0.3},
    {"EC2 Vir", geo::Region::NorthAmerica, 0.001, 0.00, 3.0, 0.3},
};

}  // namespace

WorldParams WorldParams::paper() { return WorldParams{}; }

WorldParams WorldParams::small(std::uint64_t seed) {
  WorldParams p;
  p.seed = seed;
  p.server_count = 60;
  p.ect_udp_firewalled_servers = 3;
  p.ect_required_servers = 1;
  p.ec2_sensitive_servers = 1;
  p.bleach_inter_as_links = 4;
  p.bleach_intra_as_links = 2;
  p.topology.tier1_count = 3;
  p.topology.tier2_per_region = 2;
  p.topology.stub_count = 24;
  p.topology.routers_per_tier1 = 3;
  p.topology.routers_per_tier2 = 2;
  p.topology.routers_per_stub = 2;
  return p;
}

WorldParams WorldParams::scaled(double factor) const {
  WorldParams p = *this;
  factor = std::clamp(factor, 0.005, 1.0);
  auto scale = [factor](int v, int lo) {
    return std::max(lo, static_cast<int>(std::lround(v * factor)));
  };
  p.server_count = scale(server_count, 13);
  p.ect_udp_firewalled_servers = scale(ect_udp_firewalled_servers, 1);
  p.ec2_sensitive_servers = scale(ec2_sensitive_servers, 1);
  p.bleach_inter_as_links = scale(bleach_inter_as_links, 2);
  p.bleach_intra_as_links = scale(bleach_intra_as_links, 1);
  p.topology.stub_count = scale(topology.stub_count, 12);
  p.topology.tier2_per_region = scale(topology.tier2_per_region, 2);
  return p;
}

World::World(WorldParams params)
    : params_(std::move(params)),
      rng_(params_.seed),
      clock_(1'428'883'200, &clock_epoch_origin_ns_) {
  internet_ = topology::Internet::build(sim_, params_.topology, rng_.fork("topology"));
  // Rebind the network's attribution from the process-wide default to this
  // world's private Observability before any host or policy exists, so
  // every packet this world ever moves is accounted here and nowhere else.
  net().set_observability(&obs_);
  if (params_.flight_recorder_capacity > 0) {
    obs_.recorder.arm(params_.flight_recorder_capacity);
  }
  sim_.set_metrics(
      obs_.registry.counter("sim_events_total", {}, "simulator events fired"),
      obs_.registry.histogram("sim_event_lag_ms",
                              {0.1, 1.0, 5.0, 25.0, 100.0, 500.0, 2500.0}, {},
                              "sim-time lag between scheduling and firing, ms"));
  build_pool();
  build_vantages();
  build_dns();
  place_middleboxes();
  install_faults();
  if (params_.telemetry.sketched()) {
    // Resolve the sketch seed against the world seed so the estimators are
    // pure functions of (config, seed, trace) -- every worker clone and
    // the campaign-level aggregate derive the identical hash functions.
    obs_.telemetry.arm(params_.telemetry.resolved(params_.seed));
    obs_.telemetry.set_as_labeler([this](std::string_view node) {
      const auto address = wire::Ipv4Address::parse(node);
      if (!address) return std::string();  // vantage/router names: no AS key
      const auto asn = internet_->ip2as().lookup(*address);
      return asn ? util::strf("AS%u", static_cast<unsigned>(*asn))
                 : std::string("AS-unknown");
    });
  }
  if (params_.timeseries.enabled) {
    // The recorder reads sim time through this callback and subtracts the
    // origin captured at begin_trace(), so window indices are epoch-
    // relative: a pure function of the trace, never of how much sim time
    // earlier traces consumed on this particular world instance.
    obs_.timeseries.set_clock([this] { return sim_.now().count_nanos(); });
    obs_.timeseries.arm(params_.timeseries);
  }
}

World::~World() = default;

void World::build_pool() {
  util::Rng pool_rng = rng_.fork("pool");

  // Assign a country to every stub AS so geography is consistent per AS.
  for (const auto asn : internet_->stub_ases()) {
    const auto region = internet_->as_info(asn).region;
    const auto countries = geo::countries_in(region);
    if (countries.empty()) continue;
    std::vector<double> weights;
    weights.reserve(countries.size());
    for (const auto* c : countries) weights.push_back(c->weight);
    as_country_[asn] = countries[pool_rng.weighted_index(weights)];
  }

  const auto region_counts = scaled_region_counts(params_.server_count);
  int server_index = 0;
  for (const auto& [region, count] : region_counts) {
    // "Unknown" servers exist physically (we place them in Europe) but have
    // no geolocation record, like addresses missing from GeoLite2.
    const geo::Region placement_region =
        region == geo::Region::Unknown ? geo::Region::Europe : region;
    auto stubs = internet_->stub_ases(placement_region);
    if (stubs.empty()) stubs = internet_->stub_ases();
    for (int i = 0; i < count; ++i, ++server_index) {
      const auto asn = stubs[pool_rng.next_below(stubs.size())];

      LinkParams access;
      access.delay = SimDuration::from_seconds(pool_rng.uniform(1.0, 8.0) / 1e3);
      access.jitter = SimDuration::from_seconds(pool_rng.uniform(0.1, 1.0) / 1e3);
      access.loss_rate = pool_rng.uniform(0.001, 0.004);

      auto host = std::make_unique<netsim::Host>(
          util::strf("ntp%d", server_index), netsim::Host::Params{},
          pool_rng.fork(util::strf("host%d", server_index)));
      netsim::Host* raw = host.get();
      PoolServer server;
      server.attachment = internet_->attach_host(asn, std::move(host), access);
      server.host = raw;
      server.address = raw->address();

      // Every server sits behind a (usually transparent) stateful firewall;
      // per-window draws occasionally make it greylist or wedge (Fig. 2b).
      if (params_.greylist_flaky_prob > 0.0 || params_.greylist_dead_prob > 0.0) {
        netsim::GreylistUdpPolicy::Params greylist;
        greylist.flaky_prob = params_.greylist_flaky_prob;
        greylist.dead_prob = params_.greylist_dead_prob;
        net().add_egress_policy(server.attachment.router, server.attachment.router_if,
                                std::make_shared<netsim::GreylistUdpPolicy>(greylist));
      }

      server.rate_limited = pool_rng.bernoulli(params_.rate_limited_fraction);
      ntp::NtpServerService::Params ntp_params;
      ntp_params.stratum = static_cast<std::uint8_t>(pool_rng.uniform_int(1, 3));
      ntp_params.response_prob =
          server.rate_limited ? params_.rate_limited_response_prob : 1.0;
      server.ntp_service =
          std::make_unique<ntp::NtpServerService>(*raw, clock_, ntp_params);

      server.runs_web = pool_rng.bernoulli(params_.web_server_fraction);
      server.web_ecn = server.runs_web && pool_rng.bernoulli(params_.web_ecn_fraction);
      tcp::TcpConfig tcp_config;
      tcp_config.ecn_enabled = server.web_ecn;
      server.tcp_stack = std::make_unique<tcp::TcpStack>(*raw, tcp_config);
      if (server.runs_web) {
        server.web =
            std::make_unique<http::HttpServerService>(*server.tcp_stack,
                                                      http::HttpServerService::Config{});
        // Simulated HTTP traffic lands in this world's registry as http_*
        // counters -- deterministic like everything else in the registry,
        // so the families survive the one-worker-vs-N equality gate.
        server.web->set_metrics(&obs_.registry);
      }

      if (region != geo::Region::Unknown) {
        const auto* country = as_country_.contains(asn) ? as_country_.at(asn) : nullptr;
        server.country = country;
        geo::GeoRecord record;
        record.region = region;
        if (country != nullptr) {
          record.country = country->code;
          auto rng_geo = pool_rng.fork(util::strf("geo%d", server_index));
          const auto [lat, lon] = geo::sample_location(*country, rng_geo);
          record.latitude = lat;
          record.longitude = lon;
        }
        geodb_.add(server.address, 32, std::move(record));
      }
      servers_.push_back(std::move(server));
    }
  }
}

void World::build_vantages() {
  util::Rng vantage_rng = rng_.fork("vantages");
  for (const auto& spec : kVantageSpecs) {
    auto stubs = internet_->stub_ases(spec.region);
    if (stubs.empty()) stubs = internet_->stub_ases();
    const auto asn = stubs[vantage_rng.next_below(stubs.size())];

    LinkParams access;
    access.delay = SimDuration::from_seconds(spec.delay_ms / 1e3);
    access.jitter = SimDuration::from_seconds(spec.jitter_ms / 1e3);
    access.loss_rate = spec.loss;

    auto host = std::make_unique<netsim::Host>(std::string("vp-") + spec.name,
                                               netsim::Host::Params{},
                                               vantage_rng.fork(spec.name));
    netsim::Host* raw = host.get();
    const auto attachment = internet_->attach_host(asn, std::move(host), access);

    if (spec.tos_drop > 0.0) {
      // The vantage's own access equipment preferentially drops packets
      // with a non-zero ToS octet (which includes any ECT mark).
      net().add_egress_policy(attachment.host, attachment.host_if,
                              std::make_shared<netsim::TosSensitiveDropPolicy>(
                                  spec.tos_drop));
    }

    VantageEntry entry;
    entry.name = spec.name;
    entry.host = raw;
    entry.vantage = std::make_unique<measure::Vantage>(spec.name, *raw, clock_);
    vantage_names_.push_back(spec.name);
    vantages_.push_back(std::move(entry));
  }
}

void World::build_dns() {
  util::Rng dns_rng = rng_.fork("dns");
  zones_ = std::make_shared<dns::PoolZones>();
  for (const auto& server : servers_) {
    zones_->add_member("pool.ntp.org", server.address);
    const auto record = geodb_.lookup(server.address);
    if (!record) continue;  // Unknown servers: global zone only
    const auto region_label = region_zone_label(record->region);
    if (!region_label.empty()) {
      zones_->add_member(region_label + ".pool.ntp.org", server.address);
    }
    if (!record->country.empty()) {
      zones_->add_member(record->country + ".pool.ntp.org", server.address);
    }
  }

  const auto stubs = internet_->stub_ases(geo::Region::Europe);
  const auto asn = stubs.empty() ? internet_->stub_ases().front()
                                 : stubs[dns_rng.next_below(stubs.size())];
  LinkParams access;
  access.delay = SimDuration::millis(2);
  access.loss_rate = 0.0005;
  auto host = std::make_unique<netsim::Host>("dns-resolver", netsim::Host::Params{},
                                             dns_rng.fork("resolver"));
  resolver_host_ = host.get();
  internet_->attach_host(asn, std::move(host), access);
  resolver_address_ = resolver_host_->address();
  resolver_service_ = std::make_unique<dns::DnsServerService>(*resolver_host_, zones_);
}

std::vector<std::string> World::pool_zone_names() const { return zones_->zone_names(); }

void World::place_middleboxes() {
  util::Rng mb_rng = rng_.fork("middleboxes");

  // (a) ECN bleachers first. Mostly on inter-AS links (the paper attributes
  // 59.1% of strip locations to AS boundaries), preferring stub uplinks so
  // strips sit away from the sender; never on links of ASes hosting a
  // vantage. The ASes they touch are recorded so the pathological servers
  // below are not placed behind a bleached path (a bleacher upstream of an
  // ECT-dropping firewall would neutralise it -- the paper's persistent
  // spikes are visible from *every* vantage point).
  std::set<topology::Asn> vantage_asns;
  for (const auto& entry : vantages_) {
    if (const auto* att = internet_->attachment_of(entry.host->address())) {
      vantage_asns.insert(att->asn);
    }
  }
  std::set<topology::Asn> bleached_asns;

  std::vector<const topology::InterAsLink*> candidates;
  for (const auto& link : internet_->inter_as_links()) {
    if (vantage_asns.contains(link.asn_a) || vantage_asns.contains(link.asn_b)) continue;
    const bool touches_stub = internet_->as_info(link.asn_a).tier == 3 ||
                              internet_->as_info(link.asn_b).tier == 3;
    if (touches_stub) candidates.push_back(&link);
  }
  mb_rng.shuffle(candidates);
  const auto n_inter = std::min<std::size_t>(
      candidates.size(), static_cast<std::size_t>(params_.bleach_inter_as_links));
  for (std::size_t i = 0; i < n_inter; ++i) {
    const auto* link = candidates[i];
    const double prob = mb_rng.bernoulli(params_.bleach_sometimes_fraction)
                            ? params_.bleach_sometimes_prob
                            : 1.0;
    net().add_egress_policy(link->a.node, link->a.if_index,
                            std::make_shared<netsim::EcnBleachPolicy>(prob));
    net().add_egress_policy(link->b.node, link->b.if_index,
                            std::make_shared<netsim::EcnBleachPolicy>(prob));
    bleached_asns.insert(link->asn_a);
    bleached_asns.insert(link->asn_b);
  }

  // Intra-AS bleachers live inside stub (edge) networks: bleaching on a
  // heavily-shared core link would redden far more hops than the paper's
  // "few, widely scattered" strip regions.
  std::vector<topology::InterfaceRef> intra;
  for (const auto& iface : internet_->intra_as_interfaces()) {
    const auto asn = internet_->asn_of_router(iface.node);
    if (asn && internet_->as_info(*asn).tier == 3 && !vantage_asns.contains(*asn)) {
      intra.push_back(iface);
    }
  }
  mb_rng.shuffle(intra);
  const auto n_intra = std::min<std::size_t>(
      intra.size(), static_cast<std::size_t>(params_.bleach_intra_as_links));
  for (std::size_t i = 0; i < n_intra; ++i) {
    const double prob = mb_rng.bernoulli(params_.bleach_sometimes_fraction)
                            ? params_.bleach_sometimes_prob
                            : 1.0;
    net().add_egress_policy(intra[i].node, intra[i].if_index,
                            std::make_shared<netsim::EcnBleachPolicy>(prob));
    if (const auto asn = internet_->asn_of_router(intra[i].node)) {
      bleached_asns.insert(*asn);
    }
  }

  // Candidate servers for pathological behaviours: shuffled indices,
  // skipping servers inside bleached ASes.
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (!bleached_asns.contains(servers_[i].attachment.asn)) indices.push_back(i);
  }
  mb_rng.shuffle(indices);
  std::size_t cursor = 0;
  auto take = [&](int n) {
    std::vector<std::size_t> out;
    for (int i = 0; i < n && cursor < indices.size(); ++i) out.push_back(indices[cursor++]);
    return out;
  };

  // (b) Firewalls near the destination dropping ECT-marked UDP.
  for (const auto i : take(params_.ect_udp_firewalled_servers)) {
    PoolServer& s = servers_[i];
    s.firewalled_ect_udp = true;
    net().add_egress_policy(s.attachment.router, s.attachment.router_if,
                            std::make_shared<netsim::EctUdpDropPolicy>());
  }

  // (c) The Figure 3b oddity: a server reachable *only* with ECT-marked UDP.
  for (const auto i : take(params_.ect_required_servers)) {
    PoolServer& s = servers_[i];
    s.ect_required = true;
    netsim::MatchDropPolicy::Match match;
    match.protocol = wire::IpProto::Udp;
    match.ect = false;
    net().add_egress_policy(s.attachment.router, s.attachment.router_if,
                            std::make_shared<netsim::MatchDropPolicy>(
                                match, "not-ect-udp-drop"));
  }

  // (d) The "Phoenix Public Library" pair: drop not-ECT UDP from EC2
  // source addresses only.
  for (const auto i : take(params_.ec2_sensitive_servers)) {
    PoolServer& s = servers_[i];
    s.ec2_sensitive = true;
    for (const auto& entry : vantages_) {
      if (entry.name.rfind("EC2", 0) != 0) continue;
      netsim::MatchDropPolicy::Match match;
      match.protocol = wire::IpProto::Udp;
      match.ect = false;
      match.src_prefix = {entry.host->address(), 32};
      net().add_egress_policy(s.attachment.router, s.attachment.router_if,
                              std::make_shared<netsim::MatchDropPolicy>(
                                  match, "ec2-not-ect-drop"));
    }
  }
}

void World::install_faults() {
  const chaos::FaultPlan& faults = params_.faults;
  if (!faults.enabled()) return;
  // Everything below draws from forks of one "chaos" stream, and the
  // policies keep private epoch-seeded RNGs -- the fault-free datapath
  // draws are untouched, so a clean world with the same seed is unchanged.
  util::Rng chaos_rng = rng_.fork("chaos");

  // Link-level faults live on inter-AS links: they carry most paths, so a
  // handful of chaotic links degrades many traces without severing any.
  std::vector<const topology::InterAsLink*> all_links;
  for (const auto& link : internet_->inter_as_links()) all_links.push_back(&link);
  auto pick_links = [&](int count, const char* label) {
    std::vector<const topology::InterAsLink*> picked = all_links;
    auto rng = chaos_rng.fork(label);
    rng.shuffle(picked);
    const auto n = std::min(picked.size(),
                            static_cast<std::size_t>(std::max(0, count)));
    picked.resize(n);
    return picked;
  };
  auto on_both_ends = [&](const topology::InterAsLink* link, auto make_policy) {
    net().add_egress_policy(link->a.node, link->a.if_index, make_policy());
    net().add_egress_policy(link->b.node, link->b.if_index, make_policy());
  };

  for (const auto* link : pick_links(faults.chaos_links, "chaos-links")) {
    if (faults.corrupt_prob > 0.0) {
      on_both_ends(link, [&] {
        return std::make_shared<chaos::CorruptionPolicy>(faults.corrupt_prob);
      });
    }
    if (faults.duplicate_prob > 0.0) {
      on_both_ends(link, [&] {
        return std::make_shared<chaos::DuplicatePolicy>(faults.duplicate_prob);
      });
    }
    if (faults.reorder_prob > 0.0 && faults.reorder_window_ms > 0.0) {
      on_both_ends(link, [&] {
        return std::make_shared<chaos::ReorderPolicy>(faults.reorder_prob,
                                                      faults.reorder_window_ms);
      });
    }
  }

  if (faults.icmp_blackhole_routers > 0 && faults.icmp_blackhole_prob > 0.0) {
    // Border routers that eat ICMP error traffic on every interface --
    // traceroutes through them lose hops, probes lose their unreachables.
    std::set<netsim::NodeId> border;
    for (const auto& link : internet_->inter_as_links()) {
      border.insert(link.a.node);
      border.insert(link.b.node);
    }
    std::vector<netsim::NodeId> routers(border.begin(), border.end());
    auto rng = chaos_rng.fork("icmp-blackhole");
    rng.shuffle(routers);
    const auto n = std::min(
        routers.size(),
        static_cast<std::size_t>(std::max(0, faults.icmp_blackhole_routers)));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t ifx = 0; ifx < net().interface_count(routers[i]); ++ifx) {
        net().add_egress_policy(
            routers[i], static_cast<int>(ifx),
            std::make_shared<chaos::IcmpBlackholePolicy>(faults.icmp_blackhole_prob));
      }
    }
  }

  if (faults.quote_truncate_prob > 0.0) {
    for (const auto* link : pick_links(faults.quote_truncate_links, "quote-truncate")) {
      on_both_ends(link, [&] {
        return std::make_shared<chaos::QuoteTruncatePolicy>(faults.quote_truncate_prob);
      });
    }
  }

  if (faults.route_flap_down_ms > 0.0 && faults.route_flap_period_ms > 0.0) {
    for (const auto* link : pick_links(faults.route_flap_links, "route-flap")) {
      on_both_ends(link, [&] {
        return std::make_shared<chaos::RouteFlapPolicy>(faults.route_flap_down_ms,
                                                        faults.route_flap_period_ms);
      });
    }
  }

  if (faults.flaky_server_fraction > 0.0 &&
      (faults.short_reply_prob > 0.0 || faults.malformed_reply_prob > 0.0)) {
    auto rng = chaos_rng.fork("flaky-servers");
    for (auto& server : servers_) {
      if (rng.bernoulli(faults.flaky_server_fraction)) {
        server.ntp_service->set_flaky(faults.short_reply_prob,
                                      faults.malformed_reply_prob);
      }
    }
  }
}

std::vector<wire::Ipv4Address> World::server_addresses() const {
  std::vector<wire::Ipv4Address> out;
  out.reserve(servers_.size());
  for (const auto& server : servers_) out.push_back(server.address);
  return out;
}

measure::Vantage& World::vantage(const std::string& name) {
  for (auto& entry : vantages_) {
    if (entry.name == name) return *entry.vantage;
  }
  throw std::out_of_range("World::vantage: unknown vantage " + name);
}

std::map<std::string, measure::Vantage*> World::vantage_map() {
  std::map<std::string, measure::Vantage*> out;
  for (auto& entry : vantages_) out[entry.name] = entry.vantage.get();
  return out;
}

wire::Ipv4Address World::vantage_address(const std::string& name) {
  for (auto& entry : vantages_) {
    if (entry.name == name) return entry.host->address();
  }
  throw std::out_of_range("World::vantage_address: unknown vantage " + name);
}

void World::before_trace(const std::string& /*vantage*/, int batch, int index) {
  // Pool churn between the April/May and July/August collections. Derived
  // from a fixed stream and *recomputed* (not accumulated) so the departed
  // set for batch 2 is identical no matter which trace applies it first --
  // a campaign shard may well run a batch-2 trace before any batch-1 one.
  util::Rng churn_rng = rng_.fork("batch2-churn");
  for (auto& server : servers_) {
    server.departed = batch >= 2 && churn_rng.bernoulli(params_.batch2_departed_fraction);
  }
  util::Rng trace_rng = rng_.fork(util::strf("trace%d", index));
  for (auto& server : servers_) {
    server.online = !server.departed && !trace_rng.bernoulli(params_.offline_prob);
    server.ntp_service->set_online(server.online);
    if (server.web) server.web->set_enabled(server.online);
  }
  // Chaos: blackholed servers are dead for the whole campaign. Membership
  // re-derives from a fixed fork (identical on every call and every shard);
  // a plan without the fault makes zero draws here.
  if (params_.faults.blackhole_server_fraction > 0.0) {
    util::Rng blackhole_rng = rng_.fork("chaos-blackhole");
    for (auto& server : servers_) {
      if (blackhole_rng.bernoulli(params_.faults.blackhole_server_fraction)) {
        server.online = false;
        server.ntp_service->set_online(false);
        if (server.web) server.web->set_enabled(false);
      }
    }
  }
}

void World::begin_trace_epoch(const std::string& vantage, int batch, int index) {
  // Telemetry and series epochs first: begin_trace clears their deltas and
  // decides head-based sampling, which the recorder reads just below.
  obs_.telemetry.begin_trace(index);
  obs_.timeseries.begin_trace(index);
  // Observability epoch next: everything from here on -- including the
  // trace-start counter just below -- lands in this trace's delta.
  mark_obs_baseline();
  obs_.recorder.set_trace(index, sim_.now());
  obs_.recorder.set_trace_sampled(obs_.telemetry.trace_sampled_exact());
  clock_epoch_origin_ns_ = sim_.now().count_nanos();
  obs_.registry.counter("campaign_traces_total", {{"vantage", vantage}},
                        "campaign traces started, per vantage")->inc();
  if (params_.faults.poisons(index)) {
    // Deterministic poison: the same trace dies on every executor and every
    // resume, which is what the quarantine determinism tests rely on. Thrown
    // after the trace-start counter so the aborted attempt is visible in
    // this trace's delta.
    throw std::runtime_error(util::strf("chaos: trace %d poisoned by fault plan '%s'",
                                        index, params_.faults.name.c_str()));
  }
  const std::uint64_t epoch_seed = util::derive_seed(
      util::derive_seed(params_.seed, "trace-epoch"), static_cast<std::uint64_t>(index));
  net().begin_epoch(epoch_seed);
  for (auto& server : servers_) server.tcp_stack->reset_transients();
  for (auto& entry : vantages_) entry.vantage->tcp().reset_transients();
  before_trace(vantage, batch, index);
}

void World::mark_obs_baseline() {
  obs_baseline_ = obs_.registry.snapshot();
  obs_.ledger.reset();
  obs_flight_mark_ = obs_.recorder.cursor();
}

std::vector<obs::FlightEvent> World::take_flight_slice() {
  return obs_.recorder.take_since(obs_flight_mark_);
}

obs::ObsSnapshot World::collect_obs_delta() const {
  obs::ObsSnapshot delta;
  delta.metrics = obs_.registry.snapshot().delta_since(obs_baseline_);
  delta.ledger = obs_.ledger.aggregate();
  delta.telemetry = obs_.telemetry.collect_delta();
  delta.timeseries = obs_.timeseries.collect_delta();
  return delta;
}

void World::quarantine_trace(const std::string& vantage) {
  obs_.ledger.record_drop(obs::Layer::Measure, obs::DropCause::TraceQuarantined, vantage);
}

std::vector<measure::TracerouteObservation> World::run_traceroutes(
    int repetitions, traceroute::TracerouteOptions options) {
  // Hermetic like a campaign trace: re-derive the datapath streams from a
  // fixed label so the traceroute figures do not depend on whether (or how)
  // a campaign ran on this world first.
  net().begin_epoch(util::derive_seed(params_.seed, "traceroute-epoch"));
  std::vector<measure::TracerouteObservation> all;
  for (const auto& name : vantage_names_) {
    measure::TracerouteRunner runner(vantage(name), server_addresses(), options,
                                     repetitions);
    bool done = false;
    runner.run([&](std::vector<measure::TracerouteObservation> observations) {
      for (auto& obs : observations) all.push_back(std::move(obs));
      done = true;
    });
    sim_.run();
    if (!done) throw std::runtime_error("World::run_traceroutes: simulation stalled");
  }
  return all;
}

std::vector<wire::Ipv4Address> World::run_discovery(const std::string& vantage_name,
                                                    int rounds) {
  dns::DiscoveryCrawler::Params params;
  params.rounds = rounds;
  dns::DiscoveryCrawler crawler(vantage(vantage_name).host(), resolver_address_,
                                pool_zone_names(), params);
  std::set<std::uint32_t> found;
  bool done = false;
  crawler.start([&](const std::set<std::uint32_t>& addrs) {
    found = addrs;
    done = true;
  });
  sim_.run();
  if (!done) throw std::runtime_error("World::run_discovery: simulation stalled");
  std::vector<wire::Ipv4Address> out;
  out.reserve(found.size());
  for (const auto v : found) out.emplace_back(v);
  return out;
}

sched::GroupResolver World::breaker_group_resolver() {
  return [this](wire::Ipv4Address addr) -> std::string {
    const auto asn = internet_->ip2as().lookup(addr);
    return asn ? util::strf("AS%u", static_cast<unsigned>(*asn)) : "AS-unknown";
  };
}

std::vector<wire::Ipv4Address> World::ground_truth_firewalled() const {
  std::vector<wire::Ipv4Address> out;
  for (const auto& server : servers_) {
    if (server.firewalled_ect_udp) out.push_back(server.address);
  }
  return out;
}

measure::ParallelCampaign::ShardFactory world_shard_factory(WorldParams params) {
  return [params](int /*worker_index*/) -> std::unique_ptr<measure::CampaignShard> {
    // Runs on the worker thread: the shard's Simulator binds to it there.
    return std::make_unique<WorldShard>(params);
  };
}

measure::ParallelCampaign::Options campaign_options(const WorldParams& params,
                                                    const measure::ProbeOptions& probe,
                                                    int workers, int halt_after) {
  measure::ParallelCampaign::Options options;
  options.workers = workers;
  options.probe = probe;
  // The breaker group resolver is bound per worker shard (each clone owns
  // a private ip2as map) inside ParallelCampaign.
  if (!options.probe.sched.is_paper_default() && options.probe.sched.seed == 0) {
    options.probe.sched.seed = params.seed;
  }
  options.telemetry = params.telemetry.resolved(params.seed);
  options.halt_after_traces =
      halt_after > 0 ? halt_after : params.faults.crash_after_traces;
  return options;
}

measure::JournalMeta journal_meta(const WorldParams& params,
                                  const measure::CampaignPlan& plan,
                                  const measure::ProbeOptions& probe) {
  const auto options = campaign_options(params, probe);
  measure::JournalMeta meta;
  meta.plan = measure::plan_fingerprint(plan);
  meta.faults = params.faults.fingerprint();
  meta.seed = params.seed;
  meta.total_traces = plan.total_traces();
  meta.server_count = params.server_count;
  meta.sched = options.probe.sched.serialize();
  const auto& t = options.telemetry;
  meta.telemetry =
      !t.sketched() ? "exact"
                    : util::strf("sketched,eps=%.17g,delta=%.17g,alpha=%.17g,sample-every=%d,"
                                 "reservoir=%d,budget-bytes=%zu,seed=%llu",
                                 t.epsilon, t.delta, t.alpha, t.sample_every, t.reservoir,
                                 t.budget_bytes, static_cast<unsigned long long>(t.seed));
  const auto& ts = params.timeseries;
  meta.timeseries =
      !ts.enabled ? "off"
                  : util::strf("window-ns=%lld,alpha=%.17g,max-windows=%d",
                               static_cast<long long>(ts.window_nanos), ts.alpha,
                               ts.max_windows);
  return meta;
}

CampaignRun run_campaign(const WorldParams& params, const measure::CampaignPlan& plan,
                         const measure::ProbeOptions& probe, int workers,
                         measure::CampaignJournal* journal, int halt_after) {
  measure::ParallelCampaign campaign(world_shard_factory(params),
                                     campaign_options(params, probe, workers, halt_after));
  if (journal != nullptr) campaign.set_journal(journal);
  CampaignRun run;
  run.traces = campaign.run(plan);
  run.failures = campaign.failures();
  run.metrics = campaign.metrics();
  run.flights = campaign.flight_events();
  run.telemetry = campaign.telemetry();
  return run;
}

void World::enable_congestion_at_server(std::size_t i, double mark_prob,
                                        double drop_prob) {
  const PoolServer& server = servers_.at(i);
  // Server -> vantage direction: egress of the host's access interface.
  net().add_egress_policy(server.attachment.host, server.attachment.host_if,
                          std::make_shared<netsim::CongestionPolicy>(mark_prob, drop_prob));
}

}  // namespace ecnprobe::scenario
