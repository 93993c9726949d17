// What a tenant POSTs to ecnprobed: the campaign spec every front end
// shares (scenario::CampaignSpec, same keys, rules and messages as the
// CLI's flags) plus the daemon's own admission identity, the tenant. A
// spec that admits here runs byte-identically to the CLI invocation with
// the same keys as flags.
#pragma once

#include <string>

#include "ecnprobe/scenario/spec.hpp"
#include "ecnprobe/util/expected.hpp"

namespace ecnprobe::daemon {

struct TenantSpec : scenario::CampaignSpec {
  /// Admission-control identity; campaigns from one tenant share that
  /// tenant's active-campaign budget. Non-empty, [A-Za-z0-9._-], <= 64.
  std::string tenant = "default";

  /// Parses and fully validates a spec document: JSON syntax, the
  /// tenant, then every campaign key through scenario::CampaignSpec.
  /// Returns the first error with a precise message.
  static util::Expected<TenantSpec> from_json(const std::string& text);

  /// Canonical JSON rendering, tenant first; from_json(to_json())
  /// round-trips to an equal spec. Used to persist admitted specs.
  std::string to_json() const;

  bool operator==(const TenantSpec&) const = default;
};

}  // namespace ecnprobe::daemon
