// A single self-contained Markdown report covering every figure and table
// the paper publishes, generated from the campaign's folded figures and
// (optionally) traceroute observations. Used by `ecnprobe report` and by
// downstream studies that want one artefact per campaign.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ecnprobe/analysis/figures.hpp"
#include "ecnprobe/analysis/geosummary.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/measure/results.hpp"

namespace ecnprobe::analysis {

struct ReportInputs {
  /// The campaign's traces, folded; the traces themselves can be freed.
  FigureFold figures;
  /// Optional Section 4.2 dataset; the Figure 4 section is omitted without it.
  std::vector<measure::TracerouteObservation> traceroutes;
  const topology::IpToAsMap* ip2as = nullptr;
  /// Optional Table 1 / Figure 1 inputs.
  std::optional<GeoSummary> geo;
  std::string title = "ECN-with-UDP measurement report";
};

/// Renders the full report (GitHub-flavoured Markdown with fenced ASCII
/// charts).
std::string render_markdown_report(const ReportInputs& inputs);

}  // namespace ecnprobe::analysis
