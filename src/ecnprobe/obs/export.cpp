#include "ecnprobe/obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/table.hpp"

namespace ecnprobe::obs {

namespace {

/// Exact decimal rendering of a fixed-point milli value ("12.345").
std::string milli_to_string(std::int64_t milli) {
  const char* sign = milli < 0 ? "-" : "";
  const std::int64_t abs = milli < 0 ? -milli : milli;
  return util::strf("%s%" PRId64 ".%03" PRId64, sign, abs / 1000, abs % 1000);
}

std::string labels_to_json(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + util::json_escape(key) + "\":\"" + util::json_escape(value) + "\"";
  }
  return out + "}";
}

/// Prometheus text-format label values escape backslash, double quote and
/// newline (and nothing else); node names flow into label values verbatim,
/// so a hostile name must not be able to break out of the quoted string or
/// smuggle an extra sample line into the exposition.
std::string prometheus_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// {cause="greylist",layer="policy"} -- keys already sorted by LabelSet.
std::string labels_to_prometheus(const LabelSet& labels, const std::string& extra_key = "",
                                 const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + prometheus_escape(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + prometheus_escape(extra_value) + "\"";
  }
  return out + "}";
}

std::string bound_to_string(double bound) { return util::strf("%g", bound); }

void sample_to_json(std::string& out, const FamilySnapshot& family,
                    const SampleValue& value) {
  switch (family.kind) {
    case MetricKind::Counter:
      out += util::strf("%" PRIu64, value.counter);
      break;
    case MetricKind::Gauge:
      out += util::strf("%" PRId64, value.gauge);
      break;
    case MetricKind::Histogram: {
      out += util::strf("{\"count\":%" PRIu64 ",\"sum\":%s,\"buckets\":[", value.count,
                        milli_to_string(value.sum_milli).c_str());
      for (std::size_t i = 0; i < value.buckets.size(); ++i) {
        if (i > 0) out += ",";
        const std::string le =
            i < family.bounds.size() ? bound_to_string(family.bounds[i]) : "+Inf";
        out += util::strf("{\"le\":\"%s\",\"count\":%" PRIu64 "}", le.c_str(),
                          value.buckets[i]);
      }
      out += "]}";
      break;
    }
  }
}

/// Splits a telemetry composite key "<kind>:<label>/<cause>" at the first
/// ':' and the last '/'. Layer/node/AS labels never contain '/', causes
/// never contain ':', so the split is unambiguous.
struct ParsedTelemetryKey {
  std::string_view kind;
  std::string_view label;
  std::string_view cause;
};

bool parse_telemetry_key(std::string_view key, ParsedTelemetryKey* out) {
  const auto colon = key.find(':');
  if (colon == std::string_view::npos) return false;
  const auto slash = key.rfind('/');
  if (slash == std::string_view::npos || slash <= colon) return false;
  out->kind = key.substr(0, colon);
  out->label = key.substr(colon + 1, slash - colon - 1);
  out->cause = key.substr(slash + 1);
  return true;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  bool first_family = true;
  for (const auto& [name, family] : snapshot.families) {
    if (!first_family) out += ",";
    first_family = false;
    out += "\"" + util::json_escape(name) + "\":{\"kind\":\"" +
           std::string(to_string(family.kind)) + "\",\"samples\":[";
    bool first_sample = true;
    for (const auto& [labels, value] : family.samples) {
      if (!first_sample) out += ",";
      first_sample = false;
      out += "{\"labels\":" + labels_to_json(labels) + ",\"value\":";
      sample_to_json(out, family, value);
      out += "}";
    }
    out += "]}";
  }
  return out + "}";
}

std::string to_json(const LedgerSnapshot& ledger) {
  const auto section =
      [](const std::map<std::pair<std::string, std::string>, std::uint64_t>& entries) {
        std::string out = "{";
        bool first = true;
        for (const auto& [key, n] : entries) {
          if (!first) out += ",";
          first = false;
          out += "\"" + util::json_escape(key.first) + "/" + util::json_escape(key.second) +
                 "\":" + util::strf("%" PRIu64, n);
        }
        return out + "}";
      };
  return util::strf("{\"drops\":%s,\"total_drops\":%" PRIu64
                    ",\"rewrites\":%s,\"total_rewrites\":%" PRIu64 "}",
                    section(ledger.drops).c_str(), ledger.total_drops(),
                    section(ledger.rewrites).c_str(), ledger.total_rewrites());
}

std::string to_json(const ObsSnapshot& snapshot) {
  std::string out = "{\"metrics\":" + to_json(snapshot.metrics) +
                    ",\"drop_ledger\":" + to_json(snapshot.ledger);
  // Omitted when empty so documents without --timeseries stay
  // byte-identical to the pre-series format (CI diffs these bytes).
  if (!snapshot.timeseries.empty()) {
    out += ",\"timeseries\":" + to_json(snapshot.timeseries);
  }
  return out + "}";
}

std::string to_json(const TimeSeriesDelta& series) {
  if (series.empty()) return "null";
  std::string out = util::strf("{\"window_nanos\":%" PRId64
                               ",\"rtt_subbits\":%d,\"windows\":{",
                               series.window_nanos, series.rtt_subbits);
  bool first_window = true;
  for (const auto& [index, window] : series.windows) {
    if (!first_window) out += ",";
    first_window = false;
    out += util::strf("\"%d\":{\"counts\":{", index);
    bool first = true;
    for (const auto& [key, n] : window.counts) {
      if (!first) out += ",";
      first = false;
      out += "\"" + util::json_escape(key) + util::strf("\":%" PRIu64, n);
    }
    out += util::strf("},\"rtt\":{\"count\":%" PRIu64 ",\"sum_nanos\":%" PRId64
                      ",\"buckets\":{",
                      window.rtt_count, window.rtt_sum_nanos);
    first = true;
    for (const auto& [bucket, n] : window.rtt_buckets) {
      if (!first) out += ",";
      first = false;
      out += util::strf("\"%d\":%" PRIu64, bucket, n);
    }
    out += "}}}";
  }
  return out + "}}";
}

std::string to_prometheus(const TimeSeriesDelta& series) {
  if (series.empty()) return "";
  std::string out;
  out += util::strf(
      "# ecnprobe_timeseries sim-time windows, window_nanos=%" PRId64
      " rtt_subbits=%d\n",
      series.window_nanos, series.rtt_subbits);
  out += "# HELP ecnprobe_timeseries_events_total probe/drop/rewrite events "
         "per sim-time window\n";
  out += "# TYPE ecnprobe_timeseries_events_total counter\n";
  for (const auto& [index, window] : series.windows) {
    const std::string window_label = util::strf("%d", index);
    for (const auto& [key, n] : window.counts) {
      LabelSet labels{{"event", key}, {"window", window_label}};
      out += "ecnprobe_timeseries_events_total" + labels_to_prometheus(labels) +
             util::strf(" %" PRIu64 "\n", n);
    }
  }
  bool any_rtt = false;
  for (const auto& [index, window] : series.windows) {
    if (window.rtt_count == 0) continue;
    if (!any_rtt) {
      out += "# HELP ecnprobe_timeseries_rtt_nanos probe RTT distribution per "
             "sim-time window (log-bucketed)\n";
      out += "# TYPE ecnprobe_timeseries_rtt_nanos histogram\n";
      any_rtt = true;
    }
    const std::string window_label = util::strf("%d", index);
    std::uint64_t cumulative = 0;
    for (const auto& [bucket, n] : window.rtt_buckets) {
      cumulative += n;
      LabelSet labels{{"le", util::strf("%" PRId64,
                                        LogHistogram::bucket_upper(
                                            bucket, series.rtt_subbits))},
                      {"window", window_label}};
      out += "ecnprobe_timeseries_rtt_nanos_bucket" +
             labels_to_prometheus(labels) +
             util::strf(" %" PRIu64 "\n", cumulative);
    }
    LabelSet labels{{"window", window_label}};
    out += "ecnprobe_timeseries_rtt_nanos_sum" + labels_to_prometheus(labels) +
           util::strf(" %" PRId64 "\n", window.rtt_sum_nanos);
    out += "ecnprobe_timeseries_rtt_nanos_count" + labels_to_prometheus(labels) +
           util::strf(" %" PRIu64 "\n", window.rtt_count);
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, family] : snapshot.families) {
    if (!family.help.empty()) out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " + std::string(to_string(family.kind)) + "\n";
    for (const auto& [labels, value] : family.samples) {
      switch (family.kind) {
        case MetricKind::Counter:
          out += name + labels_to_prometheus(labels) +
                 util::strf(" %" PRIu64 "\n", value.counter);
          break;
        case MetricKind::Gauge:
          out += name + labels_to_prometheus(labels) +
                 util::strf(" %" PRId64 "\n", value.gauge);
          break;
        case MetricKind::Histogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < value.buckets.size(); ++i) {
            cumulative += value.buckets[i];
            const std::string le =
                i < family.bounds.size() ? bound_to_string(family.bounds[i]) : "+Inf";
            out += name + "_bucket" + labels_to_prometheus(labels, "le", le) +
                   util::strf(" %" PRIu64 "\n", cumulative);
          }
          out += name + "_sum" + labels_to_prometheus(labels) + " " +
                 milli_to_string(value.sum_milli) + "\n";
          out += name + "_count" + labels_to_prometheus(labels) +
                 util::strf(" %" PRIu64 "\n", value.count);
          break;
        }
      }
    }
  }
  return out;
}

LedgerSnapshot estimated_ledger(const TelemetryAggregate& telemetry) {
  LedgerSnapshot out;
  if (!telemetry.active()) return out;
  for (const auto& key : telemetry.tracked_keys()) {
    ParsedTelemetryKey parsed;
    if (!parse_telemetry_key(key, &parsed)) continue;
    if (parsed.kind == "cause") {
      out.drops[{std::string(parsed.label), std::string(parsed.cause)}] =
          telemetry.estimate(key);
    } else if (parsed.kind == "rewrite") {
      out.rewrites[{std::string(parsed.label), std::string(parsed.cause)}] =
          telemetry.estimate(key);
    }
  }
  return out;
}

std::string to_json(const TelemetryAggregate& telemetry) {
  if (!telemetry.active()) return "null";
  const auto& config = telemetry.config();
  const auto& rtt = telemetry.rtt();
  const auto& budget = telemetry.budget();
  std::string out = "{";
  out += util::strf(
      "\"mode\":\"sketched\",\"epsilon\":%g,\"delta\":%g,\"alpha\":%g,"
      "\"sample_every\":%d,\"seed\":%" PRIu64 ",\"stream_total\":%" PRIu64
      ",\"error_bound\":%" PRIu64,
      config.epsilon, config.delta, config.alpha, config.sample_every,
      config.seed, telemetry.counts().total(), telemetry.error_bound());
  out += util::strf(
      ",\"traces\":{\"folded\":%" PRIu64 ",\"sampled_exact\":%" PRIu64
      ",\"folded_records\":%" PRIu64 "}",
      telemetry.traces_folded(), telemetry.sampled_exact_traces(),
      telemetry.folded_records());
  out += util::strf(
      ",\"budget\":{\"cap_bytes\":%zu,\"used_bytes\":%zu,\"peak_bytes\":%zu"
      ",\"admitted\":%" PRIu64 ",\"rejected\":%" PRIu64
      ",\"untracked_keys\":%" PRIu64 "}",
      budget.cap(), budget.used(), budget.peak(), budget.admitted(),
      budget.rejected(), telemetry.untracked_keys());
  out += ",\"counts\":{";
  bool first = true;
  for (const auto& key : telemetry.tracked_keys()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + util::json_escape(key) +
           util::strf("\":%" PRIu64, telemetry.estimate(key));
  }
  out += "}";
  out += util::strf(
      ",\"rtt\":{\"count\":%" PRIu64 ",\"sum_nanos\":%" PRId64
      ",\"relative_error\":%g,\"p50_nanos\":%" PRId64 ",\"p90_nanos\":%" PRId64
      ",\"p99_nanos\":%" PRId64 ",\"buckets\":{",
      rtt.count(), rtt.sum(), rtt.relative_error(), rtt.quantile(0.50),
      rtt.quantile(0.90), rtt.quantile(0.99));
  first = true;
  for (const auto& [bucket, n] : rtt.buckets()) {
    if (!first) out += ",";
    first = false;
    out += util::strf("\"%d\":%" PRIu64, bucket, n);
  }
  out += "}}";
  out += ",\"exemplars\":[";
  first = true;
  for (const auto& exemplar : telemetry.exemplars()) {
    if (!first) out += ",";
    first = false;
    out += util::strf("{\"trace\":%d,\"layer\":\"%s\",\"cause\":\"%s\","
                      "\"node\":\"%s\"}",
                      exemplar.trace, util::json_escape(exemplar.layer).c_str(),
                      util::json_escape(exemplar.cause).c_str(),
                      util::json_escape(exemplar.node).c_str());
  }
  out += "]}";
  return out;
}

std::string to_prometheus(const TelemetryAggregate& telemetry) {
  if (!telemetry.active()) return "";
  const auto& config = telemetry.config();
  std::string out;
  // The error contract, machine-greppable: every family below is an
  // estimate, never an exact counter.
  out += util::strf(
      "# ecnprobe_telemetry mode=sketched epsilon=%g delta=%g alpha=%g "
      "sample_every=%d\n",
      config.epsilon, config.delta, config.alpha, config.sample_every);
  out += util::strf(
      "# ecnprobe_telemetry estimates never undercount and overcount by at "
      "most %" PRIu64 " (= ceil(epsilon * %" PRIu64
      ") stream total) with per-key confidence %g\n",
      telemetry.error_bound(), telemetry.counts().total(),
      1.0 - config.delta);

  struct Family {
    std::string_view kind;        // composite-key prefix
    std::string_view name;        // exported family name
    std::string_view label_key;   // prometheus label for the parsed label
    std::string_view help;
  };
  static constexpr Family kFamilies[] = {
      {"cause", "ecnprobe_telemetry_drops_estimate_total", "layer",
       "estimated packets discarded, by layer and cause (count-min sketch)"},
      {"rewrite", "ecnprobe_telemetry_rewrites_estimate_total", "layer",
       "estimated in-flight ECN rewrites, by layer and cause"},
      {"hop", "ecnprobe_telemetry_hop_drops_estimate_total", "node",
       "estimated drops per hop/server node and cause"},
      {"as", "ecnprobe_telemetry_as_drops_estimate_total", "as",
       "estimated drops per origin AS and cause"},
  };
  for (const auto& family : kFamilies) {
    bool any = false;
    for (const auto& key : telemetry.tracked_keys()) {
      ParsedTelemetryKey parsed;
      if (!parse_telemetry_key(key, &parsed) || parsed.kind != family.kind) {
        continue;
      }
      if (!any) {
        out += "# HELP " + std::string(family.name) + " " +
               std::string(family.help) + "\n";
        out += "# TYPE " + std::string(family.name) + " counter\n";
        any = true;
      }
      LabelSet labels{{std::string(family.label_key), std::string(parsed.label)},
                      {"cause", std::string(parsed.cause)},
                      {"estimate", "true"}};
      out += std::string(family.name) + labels_to_prometheus(labels) +
             util::strf(" %" PRIu64 "\n", telemetry.estimate(key));
    }
  }

  const auto& rtt = telemetry.rtt();
  if (rtt.count() > 0) {
    out += "# HELP ecnprobe_telemetry_rtt_nanos probe RTT distribution "
           "(log-bucketed, relative error " +
           util::strf("%g", rtt.relative_error()) + ")\n";
    out += "# TYPE ecnprobe_telemetry_rtt_nanos histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [bucket, n] : rtt.buckets()) {
      cumulative += n;
      LabelSet labels{{"estimate", "true"},
                      {"le", util::strf("%" PRId64, LogHistogram::bucket_upper(
                                                        bucket, rtt.subbits()))}};
      out += "ecnprobe_telemetry_rtt_nanos_bucket" +
             labels_to_prometheus(labels) +
             util::strf(" %" PRIu64 "\n", cumulative);
    }
    LabelSet est{{"estimate", "true"}};
    out += "ecnprobe_telemetry_rtt_nanos_sum" + labels_to_prometheus(est) +
           util::strf(" %" PRId64 "\n", rtt.sum());
    out += "ecnprobe_telemetry_rtt_nanos_count" + labels_to_prometheus(est) +
           util::strf(" %" PRIu64 "\n", rtt.count());
  }

  const auto& budget = telemetry.budget();
  out += "# HELP ecnprobe_telemetry_budget_bytes telemetry budget accountant "
         "state\n";
  out += "# TYPE ecnprobe_telemetry_budget_bytes gauge\n";
  const std::pair<const char*, std::size_t> gauges[] = {
      {"cap", budget.cap()}, {"used", budget.used()}, {"peak", budget.peak()}};
  for (const auto& [kind, value] : gauges) {
    out += "ecnprobe_telemetry_budget_bytes" +
           labels_to_prometheus(LabelSet{{"kind", kind}}) +
           util::strf(" %zu\n", value);
  }
  out += "# HELP ecnprobe_telemetry_traces_total traces folded into the "
         "sketches, by sampling outcome\n";
  out += "# TYPE ecnprobe_telemetry_traces_total counter\n";
  out += "ecnprobe_telemetry_traces_total" +
         labels_to_prometheus(LabelSet{{"sampling", "folded"}}) +
         util::strf(" %" PRIu64 "\n",
                    telemetry.traces_folded() - telemetry.sampled_exact_traces());
  out += "ecnprobe_telemetry_traces_total" +
         labels_to_prometheus(LabelSet{{"sampling", "exact"}}) +
         util::strf(" %" PRIu64 "\n", telemetry.sampled_exact_traces());
  return out;
}

std::string render_metrics_report_json(const ObsSnapshot& campaign,
                                       const MetricsSnapshot* runtime,
                                       const TelemetryAggregate* telemetry) {
  std::string out = "{\"campaign\":" + to_json(campaign) + ",\"runtime\":";
  out += runtime != nullptr ? to_json(*runtime) : "null";
  // Exact-mode documents omit the key entirely so they stay byte-identical
  // to the pre-telemetry format (golden-pinned).
  if (telemetry != nullptr && telemetry->active()) {
    out += ",\"telemetry\":" + to_json(*telemetry);
  }
  return out + "}\n";
}

bool write_metrics_files(const std::string& path, const ObsSnapshot& campaign,
                         const MetricsSnapshot* runtime,
                         const TelemetryAggregate* telemetry) {
  if (path == "-") {
    // Stream the JSON report to stdout; there is no sensible sibling
    // path for the Prometheus exposition, so it is skipped.
    std::fputs(render_metrics_report_json(campaign, runtime, telemetry).c_str(),
               stdout);
    std::fflush(stdout);
    return true;
  }
  std::ofstream json_os(path);
  if (!json_os) return false;
  json_os << render_metrics_report_json(campaign, runtime, telemetry);

  std::string prom_path = path;
  const auto dot = prom_path.rfind('.');
  const auto slash = prom_path.rfind('/');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    prom_path.resize(dot);
  }
  prom_path += ".prom";
  MetricsSnapshot combined = campaign.metrics;
  if (runtime != nullptr) combined.merge(*runtime);
  std::ofstream prom_os(prom_path);
  if (!prom_os) return false;
  prom_os << to_prometheus(combined);
  if (telemetry != nullptr && telemetry->active()) {
    prom_os << to_prometheus(*telemetry);
  }
  prom_os << to_prometheus(campaign.timeseries);
  return json_os.good() && prom_os.good();
}

std::string render_loss_autopsy(const LedgerSnapshot& ledger) {
  if (ledger.drops.empty() && ledger.rewrites.empty()) return "";

  // Column per layer that actually saw a drop, row per cause.
  std::set<std::string> layers;
  std::set<std::string> causes;
  for (const auto& [key, n] : ledger.drops) {
    layers.insert(key.first);
    causes.insert(key.second);
  }

  std::vector<std::string> headers{"cause"};
  std::vector<util::TextTable::Align> aligns{util::TextTable::Align::Left};
  for (const auto& layer : layers) {
    headers.push_back(layer);
    aligns.push_back(util::TextTable::Align::Right);
  }
  headers.push_back("total");
  aligns.push_back(util::TextTable::Align::Right);

  util::TextTable table(headers, aligns);
  std::map<std::string, std::uint64_t> layer_totals;
  for (const auto& cause : causes) {
    std::vector<std::string> row{cause};
    std::uint64_t row_total = 0;
    for (const auto& layer : layers) {
      const auto it = ledger.drops.find({layer, cause});
      const std::uint64_t n = it != ledger.drops.end() ? it->second : 0;
      row.push_back(n == 0 ? "." : util::with_commas(static_cast<std::int64_t>(n)));
      row_total += n;
      layer_totals[layer] += n;
    }
    row.push_back(util::with_commas(static_cast<std::int64_t>(row_total)));
    table.add_row(std::move(row));
  }
  std::vector<std::string> totals{"total"};
  for (const auto& layer : layers) {
    totals.push_back(util::with_commas(static_cast<std::int64_t>(layer_totals[layer])));
  }
  totals.push_back(util::with_commas(static_cast<std::int64_t>(ledger.total_drops())));
  table.add_row(std::move(totals));

  std::ostringstream os;
  os << "Loss autopsy (drops by cause x layer):\n" << table.to_string();
  if (!ledger.rewrites.empty()) {
    os << "ECN rewrites in flight:";
    for (const auto& [key, n] : ledger.rewrites) {
      os << " " << key.second << "@" << key.first << "="
         << util::with_commas(static_cast<std::int64_t>(n));
    }
    os << "\n";
  }
  return os.str();
}

std::string render_sketched_summary(const TelemetryAggregate& telemetry) {
  if (!telemetry.active()) return "";
  const auto& config = telemetry.config();
  std::ostringstream os;
  os << util::strf(
      "Telemetry (sketched): %" PRIu64 " traces folded (%" PRIu64
      " kept exact, sample-every=%d), %" PRIu64
      " drop records live only in the sketches.\n",
      telemetry.traces_folded(), telemetry.sampled_exact_traces(),
      config.sample_every, telemetry.folded_records());
  os << util::strf(
      "Estimates never undercount; overcount <= %" PRIu64
      " per key (eps=%g of %" PRIu64 " events, confidence %g).\n",
      telemetry.error_bound(), config.epsilon, telemetry.counts().total(),
      1.0 - config.delta);
  const auto ledger = estimated_ledger(telemetry);
  const auto table = render_loss_autopsy(ledger);
  if (!table.empty()) {
    os << "Estimated " << table;  // "Estimated Loss autopsy (drops by ...)"
  }
  const auto& rtt = telemetry.rtt();
  if (rtt.count() > 0) {
    os << util::strf(
        "rtt: n=%" PRIu64 " p50=%.3fms p90=%.3fms p99=%.3fms "
        "(relative error <= %g)\n",
        rtt.count(), static_cast<double>(rtt.quantile(0.50)) / 1e6,
        static_cast<double>(rtt.quantile(0.90)) / 1e6,
        static_cast<double>(rtt.quantile(0.99)) / 1e6, rtt.relative_error());
  }
  const auto& budget = telemetry.budget();
  os << util::strf("budget: %zu/%zu bytes (peak %zu), %" PRIu64
                   " charges admitted, %" PRIu64 " rejected, %" PRIu64
                   " keys untracked\n",
                   budget.used(), budget.cap(), budget.peak(),
                   budget.admitted(), budget.rejected(),
                   telemetry.untracked_keys());
  return os.str();
}

}  // namespace ecnprobe::obs
