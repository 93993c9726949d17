// Campaign plans: the paper's 210 traces across 13 vantage points in two
// batches (authors' homes + University of Glasgow in April/May 2015, then
// those plus nine EC2 regions in July/August 2015), and the schedule that
// numbers them. measure::ParallelCampaign executes a plan.
#pragma once

#include <string>
#include <vector>

namespace ecnprobe::measure {

/// A trace that threw instead of producing a result. The executor
/// quarantines such traces -- the campaign completes, the failure is
/// recorded here (and attributed in the drop ledger by the shard) instead
/// of aborting the run.
struct TraceFailure {
  int index = 0;
  std::string vantage;
  int batch = 0;
  std::string message;
};

struct CampaignPlan {
  struct Entry {
    std::string vantage;
    int batch = 1;
    int count = 1;  ///< traces from this vantage in this batch
  };
  std::vector<Entry> entries;

  int total_traces() const;

  /// The paper's layout: `home_traces` per home/campus vantage split across
  /// both batches, `ec2_traces` per EC2 region in batch 2 only, totalling
  /// 210 with the defaults.
  static CampaignPlan paper_layout(int home_batch1 = 9, int home_batch2 = 12,
                                   int ec2_traces = 14);

  /// The scaled layout every front end shares: the paper's per-vantage
  /// counts multiplied by `scale` (floored at 1 each), or -- when
  /// `traces_override` > 0 -- exactly that many traces spread uniformly
  /// over the 13 vantages. The CLI's campaign/trace-autopsy/report
  /// commands and the ecnprobed daemon all build plans through here, so a
  /// daemon campaign and a batch CLI run with the same (scale, traces)
  /// spec execute -- and number -- identical traces.
  static CampaignPlan for_scale(double scale, int traces_override = 0);
};

/// Names of the paper's 13 vantage points, in Figure 2's order.
const std::vector<std::string>& paper_vantage_names();

/// One scheduled trace: the plan expanded into campaign execution order
/// (batch 1 before batch 2, vantages interleaved round-robin within a
/// batch, the way the paper alternated collection locations). The position
/// in the returned vector is the trace's campaign-wide index, so every
/// worker count executes -- and numbers -- exactly the same traces.
struct PlannedTrace {
  std::string vantage;
  int batch = 1;
};
std::vector<PlannedTrace> expand_schedule(const CampaignPlan& plan);

}  // namespace ecnprobe::measure
