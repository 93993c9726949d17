#include "ecnprobe/chaos/fault_plan.hpp"

#include "ecnprobe/util/hash.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::chaos {
namespace {

util::Error bad(const std::string& what) { return util::make_error("fault-plan", what); }

void profile(const std::string& name, FaultPlan* plan) {
  plan->name = name;
  if (name == "wan-chaos") {
    // Misbehaving transit: corruption, duplication, and reordering on a
    // handful of inter-AS links.
    plan->chaos_links = 4;
    plan->corrupt_prob = 0.02;
    plan->duplicate_prob = 0.02;
    plan->reorder_prob = 0.30;
    plan->reorder_window_ms = 8.0;
  }
  if (name == "icmp-degraded") {
    // The traceroute experiment's worst day: routers that never send (or
    // forward) ICMP errors, and links that truncate the quotes that do
    // come back to less than a full inner IP header.
    plan->icmp_blackhole_routers = 3;
    plan->icmp_blackhole_prob = 0.5;
    plan->quote_truncate_links = 4;
    plan->quote_truncate_prob = 0.6;
  }
  if (name == "flaky-servers") {
    // A fifth of the pool answers some requests with truncated or
    // malformed NTP replies ("A Fresh Look at ECN Traversal in the Wild"
    // saw exactly this class of responder).
    plan->flaky_server_fraction = 0.2;
    plan->short_reply_prob = 0.3;
    plan->malformed_reply_prob = 0.2;
  }
  if (name == "route-flap") {
    plan->route_flap_links = 3;
    plan->route_flap_down_ms = 40.0;
    plan->route_flap_period_ms = 250.0;
  }
  if (name == "blackhole-heavy") {
    // Over a third of the pool never answers anything: without circuit
    // breakers every dead server costs the full probe sequence in
    // timeouts, with them the supervisor routes around the corpses.
    plan->blackhole_server_fraction = 0.35;
  }
}

using util::store;

// Link and router counts past the topology's own select them all.
constexpr auto kCount = util::integer_in(0, 1 << 20);
constexpr auto kProbability = util::number_in(0.0, 1.0);
constexpr auto kMs = util::number_in(0.0, util::kMaxOptionMs);

constexpr util::OptionKey<FaultPlan> kKeys[] = {
    {"chaos-links", kCount, store<&FaultPlan::chaos_links>},
    {"corrupt-prob", kProbability, store<&FaultPlan::corrupt_prob>},
    {"duplicate-prob", kProbability, store<&FaultPlan::duplicate_prob>},
    {"reorder-prob", kProbability, store<&FaultPlan::reorder_prob>},
    {"reorder-window-ms", kMs, store<&FaultPlan::reorder_window_ms>},
    {"icmp-blackhole-routers", kCount, store<&FaultPlan::icmp_blackhole_routers>},
    {"icmp-blackhole-prob", kProbability, store<&FaultPlan::icmp_blackhole_prob>},
    {"quote-truncate-links", kCount, store<&FaultPlan::quote_truncate_links>},
    {"quote-truncate-prob", kProbability, store<&FaultPlan::quote_truncate_prob>},
    {"route-flap-links", kCount, store<&FaultPlan::route_flap_links>},
    {"route-flap-down-ms", kMs, store<&FaultPlan::route_flap_down_ms>},
    {"route-flap-period-ms", kMs, store<&FaultPlan::route_flap_period_ms>},
    {"flaky-server-fraction", kProbability, store<&FaultPlan::flaky_server_fraction>},
    {"short-reply-prob", kProbability, store<&FaultPlan::short_reply_prob>},
    {"malformed-reply-prob", kProbability, store<&FaultPlan::malformed_reply_prob>},
    {"blackhole-server-fraction", kProbability,
     store<&FaultPlan::blackhole_server_fraction>},
    // Trace indices: below a campaign spec's largest trace count.
    {"poison", util::integer_in(0, (1 << 20) - 1),
     [](FaultPlan& p, util::OptionValue v) {
       p.poison_traces.insert(static_cast<int>(v.integer));
     }},
    {"crash-after", util::integer_in(0, 1 << 20), store<&FaultPlan::crash_after_traces>},
};

}  // namespace

bool FaultPlan::enabled() const {
  return chaos_links > 0 || icmp_blackhole_routers > 0 || quote_truncate_links > 0 ||
         route_flap_links > 0 || flaky_server_fraction > 0.0 ||
         blackhole_server_fraction > 0.0 || !poison_traces.empty() ||
         crash_after_traces > 0;
}

std::string FaultPlan::serialize() const {
  std::string out = "name=" + name;
  const auto num = [&out](const char* key, double v) {
    out += util::strf(",%s=%.17g", key, v);
  };
  out += util::strf(",chaos-links=%d", chaos_links);
  num("corrupt-prob", corrupt_prob);
  num("duplicate-prob", duplicate_prob);
  num("reorder-prob", reorder_prob);
  num("reorder-window-ms", reorder_window_ms);
  out += util::strf(",icmp-blackhole-routers=%d", icmp_blackhole_routers);
  num("icmp-blackhole-prob", icmp_blackhole_prob);
  out += util::strf(",quote-truncate-links=%d", quote_truncate_links);
  num("quote-truncate-prob", quote_truncate_prob);
  out += util::strf(",route-flap-links=%d", route_flap_links);
  num("route-flap-down-ms", route_flap_down_ms);
  num("route-flap-period-ms", route_flap_period_ms);
  num("flaky-server-fraction", flaky_server_fraction);
  num("short-reply-prob", short_reply_prob);
  num("malformed-reply-prob", malformed_reply_prob);
  num("blackhole-server-fraction", blackhole_server_fraction);
  out += ",poison=";
  bool first = true;
  for (const int idx : poison_traces) {
    if (!first) out += "+";
    out += std::to_string(idx);
    first = false;
  }
  out += util::strf(",crash-after=%d", crash_after_traces);
  return out;
}

std::string FaultPlan::fingerprint() const {
  // crash-after is excluded from the identity: it only decides when the
  // executor stops, never what any trace's bytes are, and the whole point
  // of the journal is to resume a `crash-after=N` run without the crash.
  FaultPlan effective = *this;
  effective.crash_after_traces = 0;
  return util::strf("%s#%016llx", name.c_str(),
                    static_cast<unsigned long long>(util::fnv1a64(effective.serialize())));
}

util::Expected<FaultPlan> FaultPlan::parse(const std::string& spec) {
  const auto list = util::split_options(spec, profile_names(), "poison");
  if (!list) return bad(list.error().message);
  FaultPlan base;
  profile(std::string(list->head), &base);
  auto plan = util::read_options(std::move(base), list->options, kKeys);
  if (!plan) return bad(plan.error().message);
  return plan;
}

std::vector<std::string> FaultPlan::profile_names() {
  return {"none",       "wan-chaos", "icmp-degraded",
          "flaky-servers", "route-flap", "blackhole-heavy"};
}

}  // namespace ecnprobe::chaos
