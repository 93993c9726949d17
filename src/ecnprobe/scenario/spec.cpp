#include "ecnprobe/scenario/spec.hpp"

#include <algorithm>
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

/// One row per key: whether JSON carries it as a number (else a string),
/// and the one refusal for a value that is malformed or out of range,
/// whichever form it arrived in.
struct Field {
  std::string_view key;
  bool number;
  std::string_view rule;
};

constexpr Field kFields[] = {
    {"scale", true, "must be a number in (0, 1]"},
    {"seed", true, "must be a non-negative integer"},
    {"traces", true, "must be an integer in [0, 1048576]"},
    {"workers", true, "must be an integer in [1, 256]"},
    {"faults", false, "must be a string"},
    {"telemetry", false, "must be a string"},
    {"timeseries", false, "must be a string"},
    {"sched", false, "must be a string"},
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
  return spec_error(quoted(key) + " " + std::string(find_field(key)->rule));
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
  if (!(spec.scale > 0.0 && spec.scale <= 1.0)) return refuse("scale");
  if (spec.traces < 0 || spec.traces > kMaxTraces) return refuse("traces");
  if (spec.workers < 1 || spec.workers > kMaxWorkers) return refuse("workers");
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
    if (!value.is(field->number ? Kind::Number : Kind::String) ||
        !set_field(spec, key, field->number ? value.raw_number : value.string)) {
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
