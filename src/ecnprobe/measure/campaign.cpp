#include "ecnprobe/measure/campaign.hpp"

#include <algorithm>

namespace ecnprobe::measure {

int CampaignPlan::total_traces() const {
  int total = 0;
  for (const auto& entry : entries) total += entry.count;
  return total;
}

const std::vector<std::string>& paper_vantage_names() {
  static const std::vector<std::string> kNames = {
      "Perkins home", "McQuistin home", "UGla wired", "UGla wless",
      "EC2 Cal",      "EC2 Fra",        "EC2 Ire",    "EC2 Ore",
      "EC2 Sao",      "EC2 Sin",        "EC2 Syd",    "EC2 Tok",
      "EC2 Vir",
  };
  return kNames;
}

CampaignPlan CampaignPlan::paper_layout(int home_batch1, int home_batch2, int ec2_traces) {
  // 4 home/campus vantages x (9 + 12) + 9 EC2 regions x 14 = 84 + 126 = 210.
  CampaignPlan plan;
  const auto& names = paper_vantage_names();
  for (int i = 0; i < 4; ++i) {
    plan.entries.push_back({names[static_cast<std::size_t>(i)], 1, home_batch1});
  }
  for (int i = 0; i < 4; ++i) {
    plan.entries.push_back({names[static_cast<std::size_t>(i)], 2, home_batch2});
  }
  for (std::size_t i = 4; i < names.size(); ++i) {
    plan.entries.push_back({names[i], 2, ec2_traces});
  }
  return plan;
}

CampaignPlan CampaignPlan::for_scale(double scale, int traces_override) {
  if (traces_override > 0) {
    // Uniform override: N traces spread over the 13 vantage points, the
    // first four (home/campus) in batch 1, the EC2 regions in batch 2.
    CampaignPlan plan;
    const auto& names = paper_vantage_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const int share =
          traces_override / static_cast<int>(names.size()) +
          (static_cast<int>(i) < traces_override % static_cast<int>(names.size())
               ? 1
               : 0);
      if (share > 0) plan.entries.push_back({names[i], i < 4 ? 1 : 2, share});
    }
    return plan;
  }
  return paper_layout(std::max(1, static_cast<int>(9 * scale)),
                      std::max(1, static_cast<int>(12 * scale)),
                      std::max(1, static_cast<int>(14 * scale)));
}

std::vector<PlannedTrace> expand_schedule(const CampaignPlan& plan) {
  std::vector<PlannedTrace> schedule;
  for (int batch = 1; batch <= 2; ++batch) {
    bool added = true;
    int round = 0;
    while (added) {
      added = false;
      for (const auto& entry : plan.entries) {
        if (entry.batch != batch || round >= entry.count) continue;
        schedule.push_back({entry.vantage, batch});
        added = true;
      }
      ++round;
    }
  }
  return schedule;
}

}  // namespace ecnprobe::measure
