#include "ecnprobe/scenario/spec.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "ecnprobe/chaos/fault_plan.hpp"
#include "ecnprobe/obs/telemetry.hpp"
#include "ecnprobe/obs/timeseries.hpp"
#include "ecnprobe/sched/policy.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::scenario {

namespace {

constexpr int kMaxTraces = 1 << 20;
constexpr int kMaxWorkers = 256;

/// One row per key: for a number key (a JSON number), the values it
/// admits; a string key has none. A malformed or out-of-range value is
/// refused with one message whichever form it arrived in.
struct Field {
  std::string_view key;
  std::optional<util::OptionRange> range;
};

constexpr Field kFields[] = {
    {"scale", util::number_in(0.0, 1.0, /*lo_open=*/true)},
    {"seed", util::integer_in(0, UINT64_MAX)},
    {"traces", util::integer_in(0, kMaxTraces)},
    {"workers", util::integer_in(1, kMaxWorkers)},
    {"faults", std::nullopt},
    {"telemetry", std::nullopt},
    {"timeseries", std::nullopt},
    {"sched", std::nullopt},
};

util::Error spec_error(const std::string& message) {
  return util::make_error("spec", "invalid campaign spec: " + message);
}

std::string quoted(std::string_view key) { return "\"" + std::string(key) + "\""; }

const Field* find_field(std::string_view key) {
  for (const auto& field : kFields) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

util::Error refuse(std::string_view key) {
  const auto& range = find_field(key)->range;
  return spec_error(quoted(key) + " must be " +
                    (range ? util::describe(*range) : std::string("a string")));
}

/// Whether a number key's value lies in its row's range.
bool in_range(std::string_view key, auto value) {
  return util::admits(*find_field(key)->range, value);
}

template <typename T>
bool parse_integer_into(std::string_view text, T* out) {
  const auto value = util::parse_integer<T>(text);
  if (value) *out = *value;
  return value.has_value();
}

/// Sets `key` from its text: a flag's value, a JSON number's token or a
/// JSON string's contents. Syntax only (ranges are check()'s); false when
/// the text is not a value of the field's type.
bool set_field(CampaignSpec& spec, std::string_view key, std::string_view text) {
  if (key == "scale") {
    const auto value = util::parse_number(text);
    if (value) spec.scale = *value;
    return value.has_value();
  }
  if (key == "seed") return parse_integer_into(text, &spec.seed);
  if (key == "traces") return parse_integer_into(text, &spec.traces);
  if (key == "workers") return parse_integer_into(text, &spec.workers);
  std::string* field = key == "faults"       ? &spec.faults
                       : key == "telemetry"  ? &spec.telemetry
                       : key == "timeseries" ? &spec.timeseries
                                             : &spec.sched;
  *field = std::string(text);
  return true;
}

/// The ranges and the sub-spec parsers; on success, what the spec resolves to.
util::Expected<ResolvedCampaign> check(const CampaignSpec& spec) {
  if (!in_range("scale", spec.scale)) return refuse("scale");
  if (!in_range("seed", spec.seed)) return refuse("seed");
  if (!in_range("traces", spec.traces)) return refuse("traces");
  if (!in_range("workers", spec.workers)) return refuse("workers");
  const auto sub_error = [](std::string_view key, const util::Error& error) {
    return spec_error(quoted(key) + ": " + error.message);
  };
  ResolvedCampaign out;
  out.params = WorldParams::paper().scaled(spec.scale);
  out.params.seed = spec.seed;
  const auto faults = chaos::FaultPlan::parse(spec.faults);
  if (!faults) return sub_error("faults", faults.error());
  out.params.faults = *faults;
  const auto telemetry = obs::TelemetryConfig::parse(spec.telemetry);
  if (!telemetry) return sub_error("telemetry", telemetry.error());
  out.params.telemetry = *telemetry;
  const auto timeseries = obs::TimeSeriesConfig::parse(spec.timeseries);
  if (!timeseries) return sub_error("timeseries", timeseries.error());
  out.params.timeseries = *timeseries;
  const auto sched = sched::SupervisorConfig::parse(spec.sched);
  if (!sched) return sub_error("sched", sched.error());
  out.probe.sched = *sched;
  out.plan = measure::CampaignPlan::for_scale(spec.scale, spec.traces);
  return out;
}

}  // namespace

util::Expected<CampaignSpec> CampaignSpec::from_args(const std::vector<std::string>& args) {
  CampaignSpec spec;
  std::vector<std::string_view> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg.substr(0, 2) != "--") return spec_error("unexpected argument " + quoted(arg));
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(2, eq == arg.npos ? arg.npos : eq - 2);
    if (find_field(key) == nullptr) return spec_error("unknown key " + quoted(key));
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      return spec_error("duplicate key " + quoted(key));
    }
    seen.push_back(key);
    std::string_view value;
    if (eq != arg.npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return spec_error(quoted(key) + " requires a value");
    }
    if (!set_field(spec, key, value)) return refuse(key);
  }
  if (const auto checked = check(spec); !checked) return checked.error();
  return spec;
}

util::Expected<CampaignSpec> CampaignSpec::from_json(const util::JsonValue& doc) {
  using Kind = util::JsonValue::Kind;
  if (!doc.is(Kind::Object)) return spec_error("top-level value must be an object");
  CampaignSpec spec;
  for (const auto& [key, value] : doc.object) {
    const Field* field = find_field(key);
    if (field == nullptr) return spec_error("unknown key " + quoted(key));
    const bool number = field->range.has_value();
    if (!value.is(number ? Kind::Number : Kind::String) ||
        !set_field(spec, key, number ? value.raw_number : value.string)) {
      return refuse(key);
    }
  }
  if (const auto checked = check(spec); !checked) return checked.error();
  return spec;
}

std::string CampaignSpec::to_json() const {
  std::string out = "{\"scale\":" + util::strf("%.17g", scale);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"traces\":" + std::to_string(traces);
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"faults\":" + util::json_quote(faults);
  out += ",\"telemetry\":" + util::json_quote(telemetry);
  out += ",\"timeseries\":" + util::json_quote(timeseries);
  out += ",\"sched\":" + util::json_quote(sched);
  return out + "}";
}

ResolvedCampaign CampaignSpec::resolve() const {
  auto resolved = check(*this);
  if (!resolved) throw std::invalid_argument(resolved.error().message);
  return std::move(resolved).value();
}

}  // namespace ecnprobe::scenario
