#include "ecnprobe/obs/codec.hpp"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <sstream>
#include <type_traits>
#include <vector>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::obs {
namespace {

const char* kHex = "0123456789ABCDEF";

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Reads all of `tok` with util's strict readers: bare decimal digits ('-'
/// only for signed T) within T's range, or a finite decimal double.
template <typename T>
bool parse_tok(std::string_view tok, T* out) {
  std::optional<T> v;
  if constexpr (std::is_floating_point_v<T>) {
    v = util::parse_number(tok);
  } else {
    v = util::parse_integer<T>(tok);
  }
  if (!v) return false;
  *out = *v;
  return true;
}

util::Error bad(const std::string& what) { return util::make_error("obs-codec", what); }

/// Tokenizer over one line. Tokens are space-separated; decoding validates
/// exact token counts so trailing garbage is rejected.
struct LineTokens {
  std::vector<std::string> toks;
  std::size_t next = 0;

  bool take(std::string* out) {
    if (next >= toks.size()) return false;
    *out = toks[next++];
    return true;
  }
  bool done() const { return next == toks.size(); }
};

}  // namespace

std::string escape_token(std::string_view raw) {
  if (raw.empty()) return "%";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '%') {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

util::Expected<std::string> unescape_token(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out.push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) return bad("truncated %-escape");
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = nibble(token[i + 1]);
    const int lo = nibble(token[i + 2]);
    if (hi < 0 || lo < 0) return bad("bad %-escape");
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::string encode_obs(const ObsSnapshot& snapshot) {
  std::string out;
  auto append = [&out](const std::string& line) {
    out += line;
    out.push_back('\n');
  };
  for (const auto& [name, family] : snapshot.metrics.families) {
    std::string line = "M " + escape_token(name) + " " +
                       std::string(to_string(family.kind)) + " " + escape_token(family.help) +
                       " " + std::to_string(family.bounds.size());
    for (const double b : family.bounds) line += " " + format_double(b);
    append(line);
    for (const auto& [labels, value] : family.samples) {
      std::string s = "S " + std::to_string(labels.size());
      for (const auto& [k, v] : labels) s += " " + escape_token(k) + " " + escape_token(v);
      s += " " + std::to_string(value.counter) + " " + std::to_string(value.gauge) + " " +
           std::to_string(value.count) + " " + std::to_string(value.sum_milli) + " " +
           std::to_string(value.buckets.size());
      for (const std::uint64_t b : value.buckets) s += " " + std::to_string(b);
      append(s);
    }
  }
  for (const auto& [key, n] : snapshot.ledger.drops) {
    append("D " + escape_token(key.first) + " " + escape_token(key.second) + " " +
           std::to_string(n));
  }
  for (const auto& [key, n] : snapshot.ledger.rewrites) {
    append("R " + escape_token(key.first) + " " + escape_token(key.second) + " " +
           std::to_string(n));
  }
  // Telemetry records are emitted only when present, so exact-mode
  // encodings (empty delta) are byte-identical to the pre-telemetry
  // format -- old journals decode unchanged.
  for (const auto& [key, n] : snapshot.telemetry.counts) {
    append("T " + escape_token(key) + " " + std::to_string(n));
  }
  for (const auto& [bucket, n] : snapshot.telemetry.rtt_buckets) {
    append("L " + std::to_string(bucket) + " " + std::to_string(n));
  }
  if (snapshot.telemetry.rtt_count != 0 || snapshot.telemetry.rtt_sum_nanos != 0) {
    append("Q " + std::to_string(snapshot.telemetry.rtt_count) + " " +
           std::to_string(snapshot.telemetry.rtt_sum_nanos));
  }
  if (snapshot.telemetry.folded_records != 0 || snapshot.telemetry.sampled_exact != 0) {
    append("F " + std::to_string(snapshot.telemetry.folded_records) + " " +
           std::to_string(snapshot.telemetry.sampled_exact));
  }
  for (const auto& exemplar : snapshot.telemetry.exemplars) {
    append("E " + std::to_string(exemplar.trace) + " " + escape_token(exemplar.layer) +
           " " + escape_token(exemplar.cause) + " " + escape_token(exemplar.node));
  }
  // Time-series records follow the same only-when-present rule, so a
  // campaign without --timeseries journals the exact pre-series bytes.
  if (!snapshot.timeseries.empty()) {
    append("Z " + std::to_string(snapshot.timeseries.window_nanos) + " " +
           std::to_string(snapshot.timeseries.rtt_subbits));
    for (const auto& [index, window] : snapshot.timeseries.windows) {
      for (const auto& [key, n] : window.counts) {
        append("W " + std::to_string(index) + " " + escape_token(key) + " " +
               std::to_string(n));
      }
      for (const auto& [bucket, n] : window.rtt_buckets) {
        append("X " + std::to_string(index) + " " + std::to_string(bucket) +
               " " + std::to_string(n));
      }
      if (window.rtt_count != 0 || window.rtt_sum_nanos != 0) {
        append("Y " + std::to_string(index) + " " +
               std::to_string(window.rtt_count) + " " +
               std::to_string(window.rtt_sum_nanos));
      }
    }
  }
  return out;
}

util::Expected<ObsSnapshot> decode_obs(std::string_view text) {
  ObsSnapshot out;
  FamilySnapshot* current = nullptr;
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  int line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    if (raw_line.empty()) continue;
    LineTokens line;
    line.toks = util::split(raw_line, ' ');
    const std::string where = "line " + std::to_string(line_no);
    std::string tag;
    if (!line.take(&tag)) return bad(where + ": empty record");
    if (tag == "M") {
      std::string name_tok, kind_tok, help_tok, nbounds_tok;
      if (!line.take(&name_tok) || !line.take(&kind_tok) || !line.take(&help_tok) ||
          !line.take(&nbounds_tok)) {
        return bad(where + ": short M record");
      }
      auto name = unescape_token(name_tok);
      auto help = unescape_token(help_tok);
      if (!name || !help) return bad(where + ": bad escape in M record");
      FamilySnapshot family;
      if (kind_tok == "counter") family.kind = MetricKind::Counter;
      else if (kind_tok == "gauge") family.kind = MetricKind::Gauge;
      else if (kind_tok == "histogram") family.kind = MetricKind::Histogram;
      else return bad(where + ": unknown metric kind '" + kind_tok + "'");
      family.help = *help;
      std::uint64_t nbounds = 0;
      if (!parse_tok(nbounds_tok, &nbounds) || nbounds > 4096) {
        return bad(where + ": bad bounds count");
      }
      for (std::uint64_t i = 0; i < nbounds; ++i) {
        std::string b;
        double v = 0;
        if (!line.take(&b) || !parse_tok(b, &v)) return bad(where + ": bad bound");
        family.bounds.push_back(v);
      }
      if (!line.done()) return bad(where + ": trailing tokens in M record");
      current = &out.metrics.families[*name];
      *current = std::move(family);
    } else if (tag == "S") {
      if (current == nullptr) return bad(where + ": S record before any M record");
      std::string nlabels_tok;
      std::uint64_t nlabels = 0;
      if (!line.take(&nlabels_tok) || !parse_tok(nlabels_tok, &nlabels) || nlabels > 4096) {
        return bad(where + ": bad label count");
      }
      LabelSet labels;
      for (std::uint64_t i = 0; i < nlabels; ++i) {
        std::string k_tok, v_tok;
        if (!line.take(&k_tok) || !line.take(&v_tok)) return bad(where + ": short label");
        auto k = unescape_token(k_tok);
        auto v = unescape_token(v_tok);
        if (!k || !v) return bad(where + ": bad escape in label");
        labels[*k] = *v;
      }
      SampleValue value;
      std::string tok;
      std::uint64_t nbuckets = 0;
      if (!line.take(&tok) || !parse_tok(tok, &value.counter)) return bad(where + ": bad counter");
      if (!line.take(&tok) || !parse_tok(tok, &value.gauge)) return bad(where + ": bad gauge");
      if (!line.take(&tok) || !parse_tok(tok, &value.count)) return bad(where + ": bad count");
      if (!line.take(&tok) || !parse_tok(tok, &value.sum_milli)) return bad(where + ": bad sum");
      if (!line.take(&tok) || !parse_tok(tok, &nbuckets) || nbuckets > 4096) {
        return bad(where + ": bad bucket count");
      }
      for (std::uint64_t i = 0; i < nbuckets; ++i) {
        std::uint64_t b = 0;
        if (!line.take(&tok) || !parse_tok(tok, &b)) return bad(where + ": bad bucket");
        value.buckets.push_back(b);
      }
      if (!line.done()) return bad(where + ": trailing tokens in S record");
      current->samples[std::move(labels)] = std::move(value);
    } else if (tag == "D" || tag == "R") {
      std::string layer_tok, cause_tok, n_tok;
      std::uint64_t n = 0;
      if (!line.take(&layer_tok) || !line.take(&cause_tok) || !line.take(&n_tok) ||
          !parse_tok(n_tok, &n) || !line.done()) {
        return bad(where + ": bad ledger record");
      }
      auto layer = unescape_token(layer_tok);
      auto cause = unescape_token(cause_tok);
      if (!layer || !cause) return bad(where + ": bad escape in ledger record");
      auto& table = tag == "D" ? out.ledger.drops : out.ledger.rewrites;
      table[{*layer, *cause}] += n;
    } else if (tag == "T") {
      std::string key_tok, n_tok;
      std::uint64_t n = 0;
      if (!line.take(&key_tok) || !line.take(&n_tok) || !parse_tok(n_tok, &n) ||
          !line.done()) {
        return bad(where + ": bad telemetry count record");
      }
      auto key = unescape_token(key_tok);
      if (!key) return bad(where + ": bad escape in telemetry count");
      out.telemetry.counts[*key] += n;
    } else if (tag == "L") {
      std::string bucket_tok, n_tok;
      std::int64_t bucket = 0;
      std::uint64_t n = 0;
      if (!line.take(&bucket_tok) || !parse_tok(bucket_tok, &bucket) ||
          bucket < 0 || bucket > (std::int64_t{1} << 30) || !line.take(&n_tok) ||
          !parse_tok(n_tok, &n) || !line.done()) {
        return bad(where + ": bad telemetry rtt bucket record");
      }
      out.telemetry.rtt_buckets[static_cast<std::int32_t>(bucket)] += n;
    } else if (tag == "Q") {
      std::string count_tok, sum_tok;
      if (!line.take(&count_tok) || !parse_tok(count_tok, &out.telemetry.rtt_count) ||
          !line.take(&sum_tok) || !parse_tok(sum_tok, &out.telemetry.rtt_sum_nanos) ||
          !line.done()) {
        return bad(where + ": bad telemetry rtt totals record");
      }
    } else if (tag == "F") {
      std::string folded_tok, sampled_tok;
      if (!line.take(&folded_tok) ||
          !parse_tok(folded_tok, &out.telemetry.folded_records) ||
          !line.take(&sampled_tok) ||
          !parse_tok(sampled_tok, &out.telemetry.sampled_exact) || !line.done()) {
        return bad(where + ": bad telemetry fold record");
      }
    } else if (tag == "E") {
      std::string trace_tok, layer_tok, cause_tok, node_tok;
      std::int64_t trace = 0;
      if (!line.take(&trace_tok) || !parse_tok(trace_tok, &trace) ||
          !line.take(&layer_tok) || !line.take(&cause_tok) || !line.take(&node_tok) ||
          !line.done()) {
        return bad(where + ": bad telemetry exemplar record");
      }
      auto layer = unescape_token(layer_tok);
      auto cause = unescape_token(cause_tok);
      auto node = unescape_token(node_tok);
      if (!layer || !cause || !node) {
        return bad(where + ": bad escape in telemetry exemplar");
      }
      out.telemetry.exemplars.push_back(TelemetryExemplar{
          static_cast<int>(trace), std::move(*layer), std::move(*cause),
          std::move(*node)});
    } else if (tag == "Z") {
      std::string width_tok, subbits_tok;
      std::int64_t subbits = 0;
      if (!line.take(&width_tok) ||
          !parse_tok(width_tok, &out.timeseries.window_nanos) ||
          out.timeseries.window_nanos < 1 || !line.take(&subbits_tok) ||
          !parse_tok(subbits_tok, &subbits) || subbits < 0 || subbits > 64 ||
          !line.done()) {
        return bad(where + ": bad timeseries config record");
      }
      out.timeseries.rtt_subbits = static_cast<int>(subbits);
    } else if (tag == "W") {
      std::string index_tok, key_tok, n_tok;
      std::int64_t index = 0;
      std::uint64_t n = 0;
      if (!line.take(&index_tok) || !parse_tok(index_tok, &index) || index < 0 ||
          index > (std::int64_t{1} << 30) || !line.take(&key_tok) ||
          !line.take(&n_tok) || !parse_tok(n_tok, &n) || !line.done()) {
        return bad(where + ": bad timeseries count record");
      }
      auto key = unescape_token(key_tok);
      if (!key) return bad(where + ": bad escape in timeseries count");
      out.timeseries.windows[static_cast<std::int32_t>(index)].counts[*key] += n;
    } else if (tag == "X") {
      std::string index_tok, bucket_tok, n_tok;
      std::int64_t index = 0, bucket = 0;
      std::uint64_t n = 0;
      if (!line.take(&index_tok) || !parse_tok(index_tok, &index) || index < 0 ||
          index > (std::int64_t{1} << 30) || !line.take(&bucket_tok) ||
          !parse_tok(bucket_tok, &bucket) || bucket < 0 ||
          bucket > (std::int64_t{1} << 30) || !line.take(&n_tok) ||
          !parse_tok(n_tok, &n) || !line.done()) {
        return bad(where + ": bad timeseries rtt bucket record");
      }
      out.timeseries.windows[static_cast<std::int32_t>(index)]
          .rtt_buckets[static_cast<std::int32_t>(bucket)] += n;
    } else if (tag == "Y") {
      std::string index_tok, count_tok, sum_tok;
      std::int64_t index = 0;
      if (!line.take(&index_tok) || !parse_tok(index_tok, &index) || index < 0 ||
          index > (std::int64_t{1} << 30)) {
        return bad(where + ": bad timeseries rtt totals record");
      }
      auto& window = out.timeseries.windows[static_cast<std::int32_t>(index)];
      std::uint64_t count = 0;
      std::int64_t sum = 0;
      if (!line.take(&count_tok) || !parse_tok(count_tok, &count) ||
          !line.take(&sum_tok) || !parse_tok(sum_tok, &sum) || !line.done()) {
        return bad(where + ": bad timeseries rtt totals record");
      }
      window.rtt_count += count;
      window.rtt_sum_nanos += sum;
    } else {
      return bad(where + ": unknown record tag '" + tag + "'");
    }
  }
  return out;
}

}  // namespace ecnprobe::obs
