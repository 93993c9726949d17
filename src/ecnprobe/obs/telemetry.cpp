#include "ecnprobe/obs/telemetry.hpp"

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {

namespace {

util::Error bad(const std::string& what) {
  return util::make_error("telemetry", what);
}

using util::store;

constexpr auto kOpenUnit = util::number_in(0.0, 1.0, /*lo_open=*/true, /*hi_open=*/true);
constexpr auto kCount = util::integer_in(0, 1 << 20);

constexpr util::OptionKey<TelemetryConfig> kKeys[] = {
    {"eps", kOpenUnit, store<&TelemetryConfig::epsilon>},
    {"epsilon", kOpenUnit, store<&TelemetryConfig::epsilon>},
    {"delta", kOpenUnit, store<&TelemetryConfig::delta>},
    {"alpha", util::number_in(0.0, 1.0, /*lo_open=*/true), store<&TelemetryConfig::alpha>},
    {"sample-every", util::integer_in(1, 1 << 20), store<&TelemetryConfig::sample_every>},
    {"reservoir", kCount, store<&TelemetryConfig::reservoir>},
    {"budget-kb", kCount,
     [](TelemetryConfig& c, util::OptionValue v) { c.budget_bytes = v.integer * 1024; }},
    {"seed", util::integer_in(0, UINT64_MAX), store<&TelemetryConfig::seed>},
};

}  // namespace

std::string_view to_string(TelemetryMode mode) {
  return mode == TelemetryMode::Sketched ? "sketched" : "exact";
}

TelemetryConfig TelemetryConfig::resolved(std::uint64_t campaign_seed) const {
  TelemetryConfig out = *this;
  if (out.seed == 0) out.seed = campaign_seed;
  return out;
}

std::string TelemetryConfig::summary() const {
  if (!sketched()) return "exact";
  return util::strf(
      "sketched eps=%g delta=%g alpha=%g sample-every=%d reservoir=%d "
      "budget=%zuB seed=%llu",
      epsilon, delta, alpha, sample_every, reservoir, budget_bytes,
      static_cast<unsigned long long>(seed));
}

util::Expected<TelemetryConfig> TelemetryConfig::parse(
    const std::string& spec) {
  const auto list = util::split_options(spec, {"exact", "sketched"});
  if (!list) return bad(list.error().message);
  TelemetryConfig config;
  if (list->head == "sketched") config.mode = TelemetryMode::Sketched;
  if (!config.sketched() && !list->options.empty()) {
    return bad("exact mode takes no options");
  }
  auto out = util::read_options(config, list->options, kKeys);
  if (!out) return bad(out.error().message);
  if (!CountMinSketch::fits(out->epsilon, out->delta)) {
    return bad(util::strf("eps=%g with delta=%g needs more than the sketch's %zu cells",
                          out->epsilon, out->delta, CountMinSketch::kMaxCells));
  }
  return out;
}

bool TelemetryDelta::empty() const {
  return counts.empty() && rtt_buckets.empty() && rtt_count == 0 &&
         rtt_sum_nanos == 0 && folded_records == 0 && sampled_exact == 0 &&
         exemplars.empty();
}

void TelemetryDelta::clear() { *this = TelemetryDelta{}; }

void TelemetryDelta::merge(const TelemetryDelta& other) {
  for (const auto& [key, n] : other.counts) counts[key] += n;
  for (const auto& [bucket, n] : other.rtt_buckets) rtt_buckets[bucket] += n;
  rtt_count += other.rtt_count;
  rtt_sum_nanos += other.rtt_sum_nanos;
  folded_records += other.folded_records;
  sampled_exact += other.sampled_exact;
  exemplars.insert(exemplars.end(), other.exemplars.begin(),
                   other.exemplars.end());
}

void TelemetryRecorder::arm(const TelemetryConfig& config) {
  config_ = config;
  armed_ = config.sketched();
  rtt_subbits_ = armed_ ? LogHistogram(config.alpha).subbits() : 0;
  sampled_ = true;
  trace_ = -1;
  current_.clear();
}

void TelemetryRecorder::disarm() {
  armed_ = false;
  sampled_ = true;
  current_.clear();
}

void TelemetryRecorder::begin_trace(int trace) {
  if (!armed_) return;
  trace_ = trace;
  sampled_ = config_.keeps_exact_trace(trace);
  reservoir_rng_ = util::Rng(util::derive_seed(
      util::derive_seed(config_.seed, "telemetry-reservoir"),
      static_cast<std::uint64_t>(trace)));
  current_.clear();
  current_.sampled_exact = sampled_ ? 1 : 0;
}

void TelemetryRecorder::on_drop(std::string_view layer, std::string_view cause,
                                std::string_view node) {
  if (!armed_) return;
  std::string key;
  key.reserve(8 + layer.size() + node.size() + cause.size());
  key.append("cause:").append(layer).append("/").append(cause);
  ++current_.counts[key];
  key.assign("hop:").append(node).append("/").append(cause);
  ++current_.counts[key];
  if (as_labeler_) {
    const std::string as = as_labeler_(node);
    if (!as.empty()) {
      key.assign("as:").append(as).append("/").append(cause);
      ++current_.counts[key];
    }
  }
  if (sampled_) return;  // the ledger counts the exact record
  // This record exists only in the sketches; keep a reservoir-sampled
  // exemplar so reports can still show a concrete victim. Algorithm R
  // over the trace's folded drops, driven by the private telemetry Rng.
  ++current_.folded_records;
  const auto cap = static_cast<std::size_t>(config_.reservoir);
  if (cap == 0) return;
  TelemetryExemplar exemplar{trace_, std::string(layer), std::string(cause),
                             std::string(node)};
  if (current_.exemplars.size() < cap) {
    current_.exemplars.push_back(std::move(exemplar));
    return;
  }
  const std::uint64_t slot =
      reservoir_rng_.next_below(current_.folded_records);
  if (slot < cap) current_.exemplars[slot] = std::move(exemplar);
}

void TelemetryRecorder::on_rewrite(std::string_view layer,
                                   std::string_view cause) {
  if (!armed_) return;
  std::string key;
  key.reserve(9 + layer.size() + cause.size());
  key.append("rewrite:").append(layer).append("/").append(cause);
  ++current_.counts[key];
}

void TelemetryRecorder::observe_rtt(util::SimDuration rtt) {
  if (!armed_) return;
  const std::int64_t nanos = rtt.count_nanos();
  ++current_.rtt_buckets[LogHistogram::bucket_index(nanos, rtt_subbits_)];
  ++current_.rtt_count;
  current_.rtt_sum_nanos += nanos;
}

TelemetryAggregate::TelemetryAggregate(const TelemetryConfig& config)
    : active_(config.sketched()),
      config_(config),
      counts_(config.sketched()
                  ? CountMinSketch(config.epsilon, config.delta, config.seed)
                  : CountMinSketch()),
      rtt_(config.sketched() ? LogHistogram(config.alpha) : LogHistogram()),
      budget_(config.budget_bytes),
      exemplar_rng_(util::derive_seed(config.seed, "exemplar-reservoir")) {
  if (active_) {
    budget_.charge_fixed(counts_.memory_bytes() + rtt_.memory_bytes());
  }
}

std::size_t TelemetryAggregate::exemplar_capacity() const {
  if (!active_ || config_.reservoir <= 0) return 0;
  return static_cast<std::size_t>(config_.reservoir) * 32;
}

void TelemetryAggregate::fold(const TelemetryDelta& delta) {
  if (!active_) return;
  ++traces_folded_;
  sampled_exact_ += delta.sampled_exact;
  folded_records_ += delta.folded_records;
  for (const auto& [key, n] : delta.counts) {
    counts_.add(key, n);
    if (!tracked_keys_.contains(key)) {
      // Directory entries are variable-size: ask the budget. A refused
      // key still counts in the sketch -- only enumeration loses it.
      if (budget_.try_charge(key.size() + 64)) {
        tracked_keys_.insert(key);
      } else {
        ++untracked_keys_;
      }
    }
  }
  for (const auto& [bucket, n] : delta.rtt_buckets) rtt_.add_bucket(bucket, n);
  rtt_.add_sum(delta.rtt_sum_nanos);
  // Campaign-level reservoir (Algorithm R): exemplar memory stays a fixed
  // multiple of the per-trace reservoir no matter how many traces fold.
  // Deterministic because folds -- and therefore the reservoir RNG draws
  // -- happen in plan order at any worker count.
  const std::size_t cap = exemplar_capacity();
  for (const auto& exemplar : delta.exemplars) {
    const std::size_t bytes = sizeof(TelemetryExemplar) +
                              exemplar.layer.size() + exemplar.cause.size() +
                              exemplar.node.size();
    ++exemplar_seen_;
    if (exemplars_.size() < cap) {
      if (budget_.try_charge(bytes)) exemplars_.push_back(exemplar);
      continue;
    }
    const auto slot = exemplar_rng_.next_below(exemplar_seen_);
    if (slot >= cap) continue;
    auto& old = exemplars_[slot];
    const std::size_t old_bytes = sizeof(TelemetryExemplar) + old.layer.size() +
                                  old.cause.size() + old.node.size();
    budget_.release(old_bytes);
    if (budget_.try_charge(bytes)) {
      old = exemplar;
    } else {
      budget_.charge_fixed(old_bytes);  // refused: keep the incumbent
    }
  }
}

std::size_t TelemetryAggregate::memory_bytes() const {
  return counts_.memory_bytes() + rtt_.memory_bytes() + budget_.used();
}

}  // namespace ecnprobe::obs
