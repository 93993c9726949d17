// Write-ahead campaign journal: every completed trace is appended --
// results plus that trace's observability delta -- under an FNV-1a-64
// checksum, and flushed before the campaign moves on. A campaign killed
// mid-run (crash, ^C, or a chaos-injected crash-after-N fault) resumes
// from the journal: completed traces replay from disk, the rest run live,
// and because every trace is a pure function of (seed, index) the final
// CSV and metrics are byte-identical to an uninterrupted run.
//
// File format (one record per line, space-separated tokens):
//
//   ecnprobe-journal v2 plan=<fp> faults=<fp> seed=<u64> traces=<n> servers=<n>
//                       sched=<spec> telemetry=<spec> timeseries=<spec>
//   T <index> <checksum> <payload>
//
// The payload encodes the trace (losslessly, RTTs as raw IEEE bits) and
// the obs::codec rendering of its metrics delta, percent-escaped into a
// single token. The checksum covers the escaped payload; any flipped
// byte -- in the payload or the checksum itself -- fails open() with the
// offending line number rather than silently replaying a damaged trace.
// A record is committed once its newline is on disk: an unterminated last
// line (a kill inside append()) was never committed, so open() truncates
// it away and the trace simply runs again.
// The header pins what the journal is a journal *of*: resuming under a
// different plan, fault profile, seed, server count, probe discipline,
// telemetry mode or time series is refused. A v1 header (no sched,
// telemetry or timeseries field) still opens, is checked on the fields it
// has, and stays v1.
//
// Thread safety: none. ParallelCampaign serializes append() calls under
// its own mutex.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>

#include "ecnprobe/measure/campaign.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/ledger.hpp"

namespace ecnprobe::measure {

/// What campaign this journal belongs to. Compared field-for-field when
/// opening an existing journal.
struct JournalMeta {
  std::string plan;    ///< plan_fingerprint() of the CampaignPlan
  std::string faults;  ///< chaos::FaultPlan::fingerprint() ("none#..." when clean)
  std::uint64_t seed = 0;
  int total_traces = 0;
  int server_count = 0;
  // Canonical specs, bound by v2 headers: two campaigns with equal fields
  // probe and record alike.
  std::string sched;       ///< sched::SupervisorConfig::serialize()
  std::string telemetry;   ///< resolved obs::TelemetryConfig
  std::string timeseries;  ///< obs::TimeSeriesConfig

  bool operator==(const JournalMeta&) const = default;
};

/// Fingerprint of a campaign plan: vantage/batch/count entries hashed in
/// order, so two journals disagree whenever their schedules would.
std::string plan_fingerprint(const CampaignPlan& plan);

class CampaignJournal {
public:
  struct Entry {
    Trace trace;
    obs::ObsSnapshot delta;  ///< this trace's metrics + ledger slice
  };

  /// Opens `path` for checkpointing: a missing file starts a fresh journal
  /// (header written immediately); an existing file is validated against
  /// `meta` and its records loaded into entries(). An unterminated last
  /// line is an uncommitted record (or header): it is truncated from the
  /// file before appending resumes. Returns false -- with a human-readable
  /// reason in `*error` -- on a header mismatch, a checksum failure, or any
  /// malformed newline-terminated record. Never silently drops a committed
  /// record.
  bool open(const std::string& path, const JournalMeta& meta, std::string* error);

  /// Completed traces recovered from disk, by campaign index.
  const std::map<int, Entry>& entries() const { return entries_; }
  bool has(int index) const { return entries_.count(index) != 0; }

  /// Appends one completed trace and flushes. Also records it in
  /// entries(), so a journal can be handed to a resumed executor as-is.
  bool append(const Trace& trace, const obs::ObsSnapshot& delta);

  const JournalMeta& meta() const { return meta_; }
  const std::string& path() const { return path_; }
  bool is_open() const { return out_.is_open(); }

private:
  JournalMeta meta_;
  std::string path_;
  std::map<int, Entry> entries_;
  std::ofstream out_;
};

}  // namespace ecnprobe::measure
