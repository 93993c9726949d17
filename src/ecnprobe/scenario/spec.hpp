// The campaign spec: the one description of a campaign that every front
// end takes. `ecnprobe campaign` / `trace-autopsy` and `ntp_pool_study`
// read it from flags (from_args); ecnprobed reads it from a JSON document
// (from_json). Both forms go through one rule per field and the strict
// sub-spec parsers (FaultPlan, TelemetryConfig, TimeSeriesConfig,
// SupervisorConfig), so they accept the same values and refuse the same
// inputs with the same message; resolve() then builds the world, plan and
// probe discipline the executor runs, the same way for every front end.
// Unknown keys are refused, not ignored: a misspelled "falts" must not
// silently run a clean campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/measure/probe.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/util/json.hpp"

namespace ecnprobe::scenario {

/// What a campaign spec describes, ready for campaign_options() and the
/// executor.
struct ResolvedCampaign {
  WorldParams params;
  measure::CampaignPlan plan;
  measure::ProbeOptions probe;
};

struct CampaignSpec {
  double scale = 0.1;               ///< world scale, in (0, 1]
  std::uint64_t seed = 42;          ///< world seed
  int traces = 0;                   ///< uniform plan override, [0, 2^20]; 0 = scaled layout
  int workers = 1;                  ///< shard workers, [1, 256]
  std::string faults = "none";      ///< chaos::FaultPlan::parse spec
  std::string telemetry = "exact";  ///< obs::TelemetryConfig::parse spec
  std::string timeseries = "off";   ///< obs::TimeSeriesConfig::parse spec
  /// Probe supervision, sched::SupervisorConfig::parse format ("paper" |
  /// "backoff,...,pace-rate=50,breaker-failures=3").
  std::string sched = "paper";

  /// Flag form: "--KEY VALUE" or "--KEY=VALUE" for each key above; a key
  /// may appear once. Fully validated; the first error is returned.
  static util::Expected<CampaignSpec> from_args(const std::vector<std::string>& args);

  /// JSON form: an object with any subset of the keys above, numbers for
  /// scale/seed/traces/workers and strings for the rest. Fully validated
  /// like from_args, with the same messages.
  static util::Expected<CampaignSpec> from_json(const util::JsonValue& doc);

  /// Canonical JSON rendering (fixed key order); from_json of it gives an
  /// equal spec. %.17g keeps the scale exact, so a persisted spec re-admits
  /// to the same plan fingerprint.
  std::string to_json() const;

  /// The world, plan and probe discipline this spec describes. Throws
  /// std::invalid_argument for a spec that from_args/from_json would refuse.
  ResolvedCampaign resolve() const;

  bool operator==(const CampaignSpec&) const = default;
};

}  // namespace ecnprobe::scenario
