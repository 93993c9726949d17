// Journal-codec robustness fuzzing. A journal carrying every record type
// the codec can emit -- T/L/Q/F/E telemetry records and Z/W/X/Y
// time-series records inside the per-trace payloads -- is subjected to
// random truncation, random single-bit flips, and random garbage
// appends. The contract under test: open() either refuses cleanly (false
// + a human-readable reason) or recovers a valid prefix whose entries
// are bit-identical to what was written. It must never crash and never
// partially apply a damaged record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ecnprobe/measure/journal.hpp"

namespace ecnprobe::measure {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Deterministic 64-bit LCG (same multiplier as MMIX): the corpus is
/// reproducible run to run, no time or global RNG involved.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  }
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
};

JournalMeta fuzz_meta() {
  JournalMeta meta;
  meta.plan = "fuzzplan";
  meta.faults = "none#0011223344556677";
  meta.seed = 7;
  meta.total_traces = 8;
  meta.server_count = 3;
  return meta;
}

Trace fuzz_trace(int index) {
  Trace trace;
  trace.vantage = "EC2 Tok yo";
  trace.batch = 1 + index % 2;
  trace.index = index;
  for (int s = 0; s < 2; ++s) {
    ServerResult server;
    server.server = wire::Ipv4Address(10, 0, static_cast<std::uint8_t>(index),
                                      static_cast<std::uint8_t>(s));
    server.udp_plain = {true, 1 + s, 17.25 + index};
    server.udp_ect0 = {s == 0, 3, 0.1 + 0.2};  // non-representable sum
    server.tcp_plain = {true, false, true, 200};
    server.tcp_ecn = {true, true, s == 1, 302};
    trace.servers.push_back(server);
  }
  return trace;
}

/// A delta exercising every codec record type: D/R ledger lines, T
/// (keyed counts), L (RTT log-buckets), Q (RTT moments), F (fold
/// accounting), E (exemplars), and the Z/W/X/Y time-series block.
obs::ObsSnapshot fuzz_delta(int index) {
  obs::ObsSnapshot delta;
  delta.ledger.drops[{"link", "random-loss"}] = static_cast<std::uint64_t>(2 + index);
  delta.ledger.rewrites[{"ip", "ecn-bleach"}] = 1;
  delta.telemetry.counts["cause:ip/ttl-expired"] = static_cast<std::uint64_t>(3 + index);
  delta.telemetry.counts["hop:10.0.0.1/ttl-expired"] = 2;
  delta.telemetry.rtt_buckets[5] = 2;
  delta.telemetry.rtt_buckets[9] = 1;
  delta.telemetry.rtt_count = 3;
  delta.telemetry.rtt_sum_nanos = 12345678 + index;
  delta.telemetry.folded_records = 2;
  delta.telemetry.sampled_exact = static_cast<std::uint64_t>(index % 2);
  obs::TelemetryExemplar exemplar;
  exemplar.trace = index;
  exemplar.layer = "udp";
  exemplar.cause = "aqm-mark";
  exemplar.node = "r one";  // space survives escaping
  delta.telemetry.exemplars.push_back(exemplar);
  delta.timeseries.window_nanos = 1000000000;
  delta.timeseries.rtt_subbits = 2;
  auto& w0 = delta.timeseries.windows[0];
  w0.counts["probe:udp/echo"] = 4;
  w0.rtt_buckets[12] = 3;
  w0.rtt_count = 3;
  w0.rtt_sum_nanos = 999 + index;
  auto& w2 = delta.timeseries.windows[2];
  w2.counts["drop:ip/ttl-expired"] = 1;
  return delta;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr int kEntries = 4;

std::string build_rich_journal(const std::string& path) {
  CampaignJournal journal;
  std::string error;
  EXPECT_TRUE(journal.open(path, fuzz_meta(), &error)) << error;
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_TRUE(journal.append(fuzz_trace(2 * i), fuzz_delta(2 * i)));
  }
  return read_all(path);
}

/// Opens a (possibly corrupted) journal and enforces the contract: clean
/// refusal with a reason, or a recovered set whose every entry is
/// bit-identical to the original write. Returns true when open succeeded.
bool open_and_check(const std::string& path) {
  CampaignJournal journal;
  std::string error;
  if (!journal.open(path, fuzz_meta(), &error)) {
    EXPECT_FALSE(error.empty()) << "refusal must carry a reason";
    return false;
  }
  EXPECT_LE(journal.entries().size(), static_cast<std::size_t>(kEntries));
  for (const auto& [index, recovered] : journal.entries()) {
    EXPECT_TRUE(recovered.has_value()) << "open() recovers every record it counts";
    if (!recovered) continue;
    const auto& entry = *recovered;
    const Trace original = fuzz_trace(index);
    EXPECT_EQ(entry.trace.index, index);
    EXPECT_EQ(entry.trace.vantage, original.vantage);
    EXPECT_EQ(entry.trace.batch, original.batch);
    EXPECT_EQ(entry.trace.servers.size(), original.servers.size());
    const std::size_t servers =
        std::min(entry.trace.servers.size(), original.servers.size());
    for (std::size_t s = 0; s < servers; ++s) {
      EXPECT_EQ(entry.trace.servers[s].server.value(),
                original.servers[s].server.value());
      // Raw IEEE bits: exact equality, not approximate.
      EXPECT_EQ(entry.trace.servers[s].udp_plain.rtt_ms,
                original.servers[s].udp_plain.rtt_ms);
      EXPECT_EQ(entry.trace.servers[s].udp_ect0.rtt_ms,
                original.servers[s].udp_ect0.rtt_ms);
    }
    const obs::ObsSnapshot expected = fuzz_delta(index);
    EXPECT_EQ(entry.delta.ledger.drops, expected.ledger.drops);
    EXPECT_EQ(entry.delta.ledger.rewrites, expected.ledger.rewrites);
    EXPECT_EQ(entry.delta.telemetry, expected.telemetry);
    EXPECT_EQ(entry.delta.timeseries, expected.timeseries);
  }
  return true;
}

TEST(JournalFuzz, EveryTruncationRefusesCleanlyOrRecoversAValidPrefix) {
  TempFile file("journal_fuzz_trunc");
  const std::string pristine = build_rich_journal(file.path);
  ASSERT_GT(pristine.size(), 100u);

  int clean_opens = 0;
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    write_all(file.path, pristine.substr(0, cut));
    if (open_and_check(file.path)) ++clean_opens;
  }
  // Every cut opens: a record is committed once its newline is on disk,
  // so whatever follows the last newline -- a torn record, a record that
  // lost only its newline, a torn header -- was never committed and is
  // truncated, and open_and_check() verified the committed prefix bit for
  // bit.
  EXPECT_EQ(clean_opens, static_cast<int>(pristine.size()) + 1);
}

TEST(JournalFuzz, RandomBitFlipsNeverReplayDamagedRecords) {
  TempFile file("journal_fuzz_flip");
  const std::string pristine = build_rich_journal(file.path);
  const std::size_t header_end = pristine.find('\n');
  ASSERT_NE(header_end, std::string::npos);

  Lcg rng{0x5eed5eed};
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string corrupted = pristine;
    const std::size_t pos = rng.below(corrupted.size());
    const char bit = static_cast<char>(1 << rng.below(8));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ bit);
    write_all(file.path, corrupted);
    // No byte in this format is semantically inert: the header is
    // compared verbatim, every payload byte is under the checksum, the
    // checksum and index tokens are cross-checked against the payload,
    // and a flipped separator mis-tokenizes the line. Any accepted flip
    // is a detection hole.
    if (open_and_check(file.path)) ++accepted;
  }
  EXPECT_EQ(accepted, 0) << "some single-bit corruption was silently accepted";
}

TEST(JournalFuzz, RandomGarbageTailsAreRefused) {
  TempFile file("journal_fuzz_tail");
  const std::string pristine = build_rich_journal(file.path);

  Lcg rng{0xfeedface};
  for (int round = 0; round < 200; ++round) {
    std::string corrupted = pristine;
    const std::size_t len = 1 + rng.below(64);
    for (std::size_t i = 0; i < len; ++i) {
      char byte = static_cast<char>(rng.below(256));
      // Keep the garbage on one non-empty line: a tail of pure newlines
      // would be (correctly) skipped as blank lines, testing nothing.
      if (byte == '\n') byte = 'x';
      corrupted.push_back(byte);
    }
    corrupted.push_back('\n');
    write_all(file.path, corrupted);
    CampaignJournal journal;
    std::string error;
    // The undamaged prefix would be recoverable, but the trailing garbage
    // line must force a refusal -- never "load what parsed and ignore the
    // rest", which would quietly re-run traces that already ran.
    EXPECT_FALSE(journal.open(file.path, fuzz_meta(), &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(JournalFuzz, TruncatedJournalResumesAppendably) {
  // A valid-prefix recovery is not just readable -- it stays a working
  // journal: the missing traces re-append and the result reopens whole.
  TempFile file("journal_fuzz_resume");
  const std::string pristine = build_rich_journal(file.path);
  // Cut after the header + first two records (line boundary).
  std::size_t cut = 0;
  for (int newlines = 0; newlines < 3; ++cut) {
    if (pristine[cut] == '\n') ++newlines;
  }
  write_all(file.path, pristine.substr(0, cut));

  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.open(file.path, fuzz_meta(), &error)) << error;
  ASSERT_EQ(journal.entries().size(), 2u);
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(journal.append(fuzz_trace(2 * i), fuzz_delta(2 * i)));
  }
  EXPECT_EQ(read_all(file.path), pristine);
}

}  // namespace
}  // namespace ecnprobe::measure
