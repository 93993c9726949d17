#include "ecnprobe/netsim/network.hpp"

#include <stdexcept>

#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::netsim {

void Node::on_attached(Network& net, NodeId id) {
  net_ = &net;
  id_ = id;
}

void Node::set_address(wire::Ipv4Address addr) {
  address_ = addr;
  if (net_ != nullptr && !addr.is_unspecified()) net_->register_address(addr, id_);
}

Network::Network(Simulator& sim, util::Rng rng)
    : sim_(sim), rng_(rng), obs_(&obs::Observability::process()) {
  set_observability(obs_);
}

void Network::set_observability(obs::Observability* obs) {
  obs_ = obs;
  transmitted_counter_ = obs_->registry.counter("net_packets_transmitted_total", {},
                                                "datagrams entering the datapath");
  delivered_counter_ = obs_->registry.counter("net_packets_delivered_total", {},
                                              "datagrams delivered to a node");
  duplicated_counter_ = obs_->registry.counter(
      "net_packets_duplicated_total", {}, "extra datagram copies injected by duplication faults");
}

namespace {
obs::RewriteCause rewrite_cause_for(wire::Ecn after) {
  return after == wire::Ecn::Ce ? obs::RewriteCause::CeMarked : obs::RewriteCause::Bleached;
}

/// Flight-recorder taps for the datapath. Each is a no-op unless the
/// recorder is armed AND the datagram carries a flight stamp, so the
/// common case costs one bool test.
void record_flight_drop(obs::FlightRecorder& rec, Simulator& sim, const Node& node,
                        obs::Layer layer, const wire::Datagram& dgram,
                        std::string_view detail) {
  if (!rec.armed() || dgram.flight == 0) return;
  rec.record(dgram.flight, obs::SpanEvent::PolicyDrop, sim.now(), layer, node.name(),
             node.address().value(), detail, dgram.encode());
}

void record_flight_rewrite(obs::FlightRecorder& rec, Simulator& sim, const Node& node,
                           const wire::Datagram& dgram, wire::Ecn before) {
  if (!rec.armed() || dgram.flight == 0) return;
  rec.record(dgram.flight, obs::SpanEvent::EcnRewritten, sim.now(), obs::Layer::Policy,
             node.name(), node.address().value(),
             util::strf("%s->%s", std::string(wire::to_string(before)).c_str(),
                        std::string(wire::to_string(dgram.ip.ecn)).c_str()),
             dgram.encode());
}
}  // namespace

void Network::begin_epoch(std::uint64_t epoch_seed) {
  rng_ = util::Rng(util::derive_seed(epoch_seed, "datapath"));
  ip_id_ = 1;
  // Policies are visited in deterministic order (node id, interface index,
  // egress then ingress, chain position), so the salted seed each one gets
  // is a pure function of (epoch seed, its place in the topology) -- the
  // same in sequential runs and in every worker's world clone.
  const std::uint64_t policy_seed = util::derive_seed(epoch_seed, "policy");
  std::uint64_t salt = 0;
  for (auto& ifaces : ifaces_) {
    for (auto& iface : ifaces) {
      for (auto& policy : iface.egress_policies) {
        policy->on_epoch(util::derive_seed(policy_seed, ++salt));
      }
      for (auto& policy : iface.ingress_policies) {
        policy->on_epoch(util::derive_seed(policy_seed, ++salt));
      }
    }
  }
  // Node ids are assigned in construction order, which is deterministic per
  // seed, so id-salted derivation gives every node a stable epoch stream.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->on_epoch(util::derive_seed(epoch_seed, static_cast<std::uint64_t>(i) + 1));
  }
}

NodeId Network::add_node(std::unique_ptr<Node> node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  ifaces_.emplace_back();
  nodes_.back()->on_attached(*this, id);
  if (!nodes_.back()->address().is_unspecified()) {
    register_address(nodes_.back()->address(), id);
  }
  return id;
}

std::pair<int, int> Network::connect(NodeId a, NodeId b, const LinkParams& link) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("Network::connect: bad node ids");
  }
  const auto if_a = static_cast<int>(ifaces_[a].size());
  const auto if_b = static_cast<int>(ifaces_[b].size());
  Interface ia;
  ia.peer = b;
  ia.peer_if = if_b;
  ia.link = link;
  Interface ib;
  ib.peer = a;
  ib.peer_if = if_a;
  ib.link = link;
  ifaces_[a].push_back(std::move(ia));
  ifaces_[b].push_back(std::move(ib));
  return {if_a, if_b};
}

Interface& Network::interface(NodeId id, int if_index) {
  return ifaces_.at(id).at(static_cast<std::size_t>(if_index));
}

void Network::add_egress_policy(NodeId id, int if_index, PolicyPtr policy) {
  interface(id, if_index).egress_policies.push_back(std::move(policy));
}

void Network::add_ingress_policy(NodeId id, int if_index, PolicyPtr policy) {
  interface(id, if_index).ingress_policies.push_back(std::move(policy));
}

void Network::set_link_up(NodeId id, int if_index, bool up) {
  Interface& iface = interface(id, if_index);
  iface.up = up;
  // Links are symmetric: mirror onto the peer side.
  interface(iface.peer, iface.peer_if).up = up;
}

void Network::transmit(NodeId from, int egress_if, wire::Datagram dgram) {
  Interface& iface = interface(from, egress_if);
  ++stats_.packets_transmitted;
  transmitted_counter_->inc();
  if (!iface.up) {
    ++stats_.dropped_link_down;
    obs_->ledger.record_drop(obs::Layer::Link, obs::DropCause::LinkDown,
                             nodes_[from]->name());
    record_flight_drop(obs_->recorder, sim_, *nodes_[from], obs::Layer::Link, dgram,
                       "link-down");
    return;
  }
  SimDuration policy_delay;
  bool duplicate = false;
  for (auto& policy : iface.egress_policies) {
    const wire::Ecn before = dgram.ip.ecn;
    if (policy->apply(dgram, rng_, sim_.now()) == PolicyAction::Drop) {
      ++stats_.dropped_policy;
      obs_->ledger.record_drop(obs::Layer::Policy, policy->drop_cause(),
                               nodes_[from]->name());
      record_flight_drop(obs_->recorder, sim_, *nodes_[from], obs::Layer::Policy, dgram,
                         to_string(policy->drop_cause()));
      return;
    }
    if (dgram.ip.ecn != before) {
      obs_->ledger.record_rewrite(obs::Layer::Policy, rewrite_cause_for(dgram.ip.ecn),
                                  nodes_[from]->name());
      record_flight_rewrite(obs_->recorder, sim_, *nodes_[from], dgram, before);
    }
    policy_delay += policy->take_extra_delay();  // queuing policies
    duplicate = policy->take_duplicate() || duplicate;
  }
  if (iface.link.loss_rate > 0.0 && rng_.bernoulli(iface.link.loss_rate)) {
    ++stats_.dropped_loss;
    obs_->ledger.record_drop(obs::Layer::Link, obs::DropCause::LinkLoss,
                             nodes_[from]->name());
    record_flight_drop(obs_->recorder, sim_, *nodes_[from], obs::Layer::Link, dgram,
                       "link-loss");
    return;
  }
  auto link_delay = [&]() {
    SimDuration d = iface.link.delay + policy_delay;
    if (iface.link.jitter > SimDuration{}) {
      d += SimDuration::nanos(static_cast<std::int64_t>(
          rng_.next_double() * static_cast<double>(iface.link.jitter.count_nanos())));
    }
    return d;
  };
  const SimDuration delay = link_delay();
  const NodeId to = iface.peer;
  const int ingress_if = iface.peer_if;
  auto deliver = [this, to, ingress_if](SimDuration after, wire::Datagram packet) {
    // post(): fire-and-forget, so the delivery hot path allocates no
    // cancellation control block and the closure stays inline in the event.
    sim_.post(after, [this, to, ingress_if, d = std::move(packet)]() mutable {
      Interface& rx = interface(to, ingress_if);
      for (auto& policy : rx.ingress_policies) {
        const wire::Ecn before = d.ip.ecn;
        if (policy->apply(d, rng_, sim_.now()) == PolicyAction::Drop) {
          ++stats_.dropped_policy;
          obs_->ledger.record_drop(obs::Layer::Policy, policy->drop_cause(),
                                   nodes_[to]->name());
          record_flight_drop(obs_->recorder, sim_, *nodes_[to], obs::Layer::Policy, d,
                             to_string(policy->drop_cause()));
          return;
        }
        if (d.ip.ecn != before) {
          obs_->ledger.record_rewrite(obs::Layer::Policy, rewrite_cause_for(d.ip.ecn),
                                      nodes_[to]->name());
          record_flight_rewrite(obs_->recorder, sim_, *nodes_[to], d, before);
        }
      }
      ++stats_.delivered;
      delivered_counter_->inc();
      nodes_[to]->on_receive(std::move(d), ingress_if);
    });
  };
  if (duplicate) {
    // The copy draws its own jitter (after the original's draw, so the
    // fault-free RNG stream is untouched when no duplication fires).
    ++stats_.duplicated;
    duplicated_counter_->inc();
    deliver(link_delay(), dgram);
  }
  deliver(delay, std::move(dgram));
}

int Network::route(NodeId at, wire::Ipv4Address dst) const {
  if (!oracle_) return kNoInterface;
  return oracle_(at, dst);
}

NodeId Network::find_by_address(wire::Ipv4Address addr) const {
  const auto it = by_address_.find(addr.value());
  return it == by_address_.end() ? kInvalidNode : it->second;
}

void Network::register_address(wire::Ipv4Address addr, NodeId id) {
  by_address_[addr.value()] = id;
}

}  // namespace ecnprobe::netsim
