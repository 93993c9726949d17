#include "ecnprobe/daemon/spec.hpp"

#include "ecnprobe/util/json.hpp"

namespace ecnprobe::daemon {

namespace {

bool valid_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

util::Expected<TenantSpec> TenantSpec::from_json(const std::string& text) {
  auto doc = util::parse_json(text);
  if (!doc) return doc.error();
  TenantSpec spec;
  // The tenant is the daemon's key; everything else is the campaign's.
  if (auto tenant = doc->object.extract("tenant")) {
    if (!tenant.mapped().is(util::JsonValue::Kind::String) ||
        !valid_tenant(tenant.mapped().string)) {
      return util::make_error("spec", "invalid campaign spec: \"tenant\" must be a "
                                      "short [A-Za-z0-9._-] string");
    }
    spec.tenant = tenant.mapped().string;
  }
  const auto campaign = scenario::CampaignSpec::from_json(*doc);
  if (!campaign) return campaign.error();
  static_cast<scenario::CampaignSpec&>(spec) = *campaign;
  return spec;
}

std::string TenantSpec::to_json() const {
  return "{\"tenant\":" + util::json_quote(tenant) + "," +
         scenario::CampaignSpec::to_json().substr(1);
}

}  // namespace ecnprobe::daemon
