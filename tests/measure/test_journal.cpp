#include "ecnprobe/measure/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/util/hash.hpp"
#include "ecnprobe/util/strings.hpp"

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

JournalMeta sample_meta() {
  JournalMeta meta;
  meta.plan = "abc123";
  meta.faults = "none#0011223344556677";
  meta.seed = 42;
  meta.total_traces = 10;
  meta.server_count = 5;
  meta.sched = "paper,max-attempts=5,seed=0";
  meta.telemetry = "exact";
  meta.timeseries = "off";
  return meta;
}

Trace sample_trace(int index) {
  Trace trace;
  trace.vantage = "EC2 Tok yo";  // space survives escaping
  trace.batch = 2;
  trace.index = index;
  ServerResult server;
  server.server = wire::Ipv4Address(193, 0, 0, 7);
  server.udp_plain = {true, 2, 17.25};
  server.udp_ect0 = {false, 5, 0.1 + 0.2};  // deliberately non-representable sum
  server.tcp_plain = {true, false, true, 200};
  server.tcp_ecn = {true, true, true, 200};
  trace.servers.push_back(server);
  return trace;
}

obs::ObsSnapshot sample_delta() {
  obs::ObsSnapshot delta;
  delta.ledger.drops[{"link", "random-loss"}] = 3;
  return delta;
}

TEST(CampaignJournal, RoundTripsTracesBitForBit) {
  TempFile file("journal_roundtrip");
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    ASSERT_TRUE(journal.append(sample_trace(0), sample_delta()));
    ASSERT_TRUE(journal.append(sample_trace(3), sample_delta()));
  }
  CampaignJournal reopened;
  ASSERT_TRUE(reopened.open(file.path, sample_meta(), &error)) << error;
  ASSERT_EQ(reopened.entries().size(), 2u);
  ASSERT_TRUE(reopened.has(0));
  ASSERT_TRUE(reopened.has(3));
  ASSERT_TRUE(reopened.entries().at(3).has_value());
  const auto& entry = *reopened.entries().at(3);
  const auto original = sample_trace(3);
  EXPECT_EQ(entry.trace.vantage, original.vantage);
  EXPECT_EQ(entry.trace.batch, original.batch);
  ASSERT_EQ(entry.trace.servers.size(), 1u);
  // RTTs are stored as raw IEEE bits: exact equality, not approximate.
  EXPECT_EQ(entry.trace.servers[0].udp_plain.rtt_ms,
            original.servers[0].udp_plain.rtt_ms);
  EXPECT_EQ(entry.trace.servers[0].udp_ect0.rtt_ms,
            original.servers[0].udp_ect0.rtt_ms);
  EXPECT_EQ(entry.delta.ledger.total_drops(), 3u);
}

TEST(CampaignJournal, AppendIsIdempotentForReplayedTraces) {
  TempFile file("journal_idempotent");
  std::string error;
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
  ASSERT_TRUE(journal.append(sample_trace(1), sample_delta()));
  ASSERT_TRUE(journal.append(sample_trace(1), sample_delta()));  // replay path
  journal = CampaignJournal();

  std::ifstream in(file.path);
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == 'T') ++records;
  }
  EXPECT_EQ(records, 1);
}

TEST(CampaignJournal, FlippedPayloadByteDetected) {
  TempFile file("journal_bitflip");
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    ASSERT_TRUE(journal.append(sample_trace(4), sample_delta()));
  }
  // Flip one byte inside the record payload (past "T <idx> <checksum> ").
  std::string contents;
  {
    std::ifstream in(file.path);
    std::string line;
    while (std::getline(in, line)) contents += line + "\n";
  }
  const auto t_pos = contents.find("\nT ");
  ASSERT_NE(t_pos, std::string::npos);
  contents[contents.size() - 3] ^= 0x01;
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << contents;
  }
  CampaignJournal corrupted;
  EXPECT_FALSE(corrupted.open(file.path, sample_meta(), &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("trace 4"), std::string::npos) << error;
}

// A record whose checksum matches but whose numbers take a form the writer
// never emits -- a sign, a '+', a tab, a "0x" -- is refused, not replayed:
// "-1" drops must not come back as 2^64-1.
TEST(CampaignJournal, ChecksumConsistentLooseNumbersAreRefused) {
  TempFile file("journal_loose_numbers");
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    ASSERT_TRUE(journal.append(sample_trace(4), sample_delta()));
  }
  std::string header, record;
  {
    std::ifstream in(file.path);
    std::getline(in, header);
    std::getline(in, record);
  }
  // "T <idx> <checksum> <payload>": edit the payload in the clear, then
  // re-sign it so only the number reader can refuse it.
  const auto payload_at = record.find(' ', record.find(' ', 2) + 1) + 1;
  const auto payload = obs::unescape_token(record.substr(payload_at));
  ASSERT_TRUE(payload);
  const auto reopen_with = [&](const std::string& from, const std::string& to) {
    std::string edited = *payload;
    const auto at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) edited.replace(at, from.size(), to);
    const auto token = obs::escape_token(edited);
    {
      std::ofstream out(file.path, std::ios::trunc);
      out << header << "\nT 4 "
          << util::strf("%016llx", static_cast<unsigned long long>(util::fnv1a64(token)))
          << ' ' << token << '\n';
    }
    CampaignJournal journal;
    return journal.open(file.path, sample_meta(), &error);
  };
  ASSERT_TRUE(reopen_with("random-loss 3", "random-loss 3")) << error;  // re-signing works

  const double rtt = sample_trace(4).servers[0].udp_plain.rtt_ms;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &rtt, sizeof(bits));
  const auto rtt_hex = util::strf("%016llx", static_cast<unsigned long long>(bits));
  const auto address = std::to_string(sample_trace(4).servers[0].server.value());
  const std::vector<std::pair<std::string, std::string>> loose = {
      {"random-loss 3", "random-loss -1"},
      {"random-loss 3", "random-loss +3"},
      {"random-loss 3", "random-loss \t3"},
      {" 2 4 1 ", " +2 4 1 "},  // the batch
      {" " + address + " ", " +" + address + " "},
      {rtt_hex, "+" + rtt_hex},
      {rtt_hex, "0x" + rtt_hex.substr(2)},
  };
  for (const auto& [from, to] : loose) {
    EXPECT_FALSE(reopen_with(from, to)) << to;
    EXPECT_NE(error.find("undecodable"), std::string::npos) << to << ": " << error;
  }
}

TEST(CampaignJournal, FlippedChecksumByteDetected) {
  TempFile file("journal_checksumflip");
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    ASSERT_TRUE(journal.append(sample_trace(2), sample_delta()));
  }
  std::string contents;
  {
    std::ifstream in(file.path);
    std::string line;
    while (std::getline(in, line)) contents += line + "\n";
  }
  // The checksum token starts after "T 2 ".
  const auto t_pos = contents.find("\nT 2 ");
  ASSERT_NE(t_pos, std::string::npos);
  auto& digit = contents[t_pos + 5];
  digit = digit == '0' ? '1' : '0';
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << contents;
  }
  CampaignJournal corrupted;
  EXPECT_FALSE(corrupted.open(file.path, sample_meta(), &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(CampaignJournal, RefusesJournalOfDifferentCampaign) {
  TempFile file("journal_mismatch");
  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
  }
  for (auto mutate : {+[](JournalMeta* m) { m->seed = 43; },
                      +[](JournalMeta* m) { m->plan = "zzz"; },
                      +[](JournalMeta* m) { m->faults = "wan-chaos#0"; },
                      +[](JournalMeta* m) { m->total_traces = 11; },
                      +[](JournalMeta* m) { m->server_count = 6; },
                      +[](JournalMeta* m) { m->sched = "backoff,max-attempts=5,seed=42"; },
                      +[](JournalMeta* m) { m->telemetry = "sketched,eps=0.001"; },
                      +[](JournalMeta* m) { m->timeseries = "window-ns=1000000000"; }}) {
    auto meta = sample_meta();
    mutate(&meta);
    CampaignJournal other;
    EXPECT_FALSE(other.open(file.path, meta, &error));
    EXPECT_NE(error.find("different campaign"), std::string::npos) << error;
  }
  // The unmutated meta still opens.
  CampaignJournal same;
  EXPECT_TRUE(same.open(file.path, sample_meta(), &error)) << error;
}

TEST(CampaignJournal, V1JournalStillOpensReplaysAndStaysV1) {
  // A journal written before the header bound the probe discipline: the
  // same records under a v1 header, which names five fields only.
  TempFile file("journal_v1");
  std::string error;
  std::string records;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    ASSERT_TRUE(journal.append(sample_trace(2), sample_delta()));
    ASSERT_TRUE(journal.append(sample_trace(5), sample_delta()));
  }
  {
    std::ifstream in(file.path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.rfind("ecnprobe-journal v2 ", 0), 0u) << header;
    records.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string v1_header =
      "ecnprobe-journal v1 plan=abc123 faults=none#0011223344556677 seed=42 traces=10 "
      "servers=5";
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << v1_header << '\n' << records;
  }

  auto other_seed = sample_meta();
  other_seed.seed = 43;
  CampaignJournal refused;
  EXPECT_FALSE(refused.open(file.path, other_seed, &error));
  EXPECT_NE(error.find("different campaign"), std::string::npos) << error;

  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
  ASSERT_EQ(journal.entries().size(), 2u);
  EXPECT_TRUE(journal.has(2));
  EXPECT_TRUE(journal.has(5));
  EXPECT_TRUE(journal.append(sample_trace(7), sample_delta()));
  std::ifstream in(file.path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, v1_header);
  CampaignJournal reopened;
  ASSERT_TRUE(reopened.open(file.path, sample_meta(), &error)) << error;
  EXPECT_EQ(reopened.entries().size(), 3u);
}

TEST(CampaignJournal, EmptyFileTreatedAsFresh) {
  TempFile file("journal_empty");
  { std::ofstream touch(file.path); }
  std::string error;
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
  EXPECT_TRUE(journal.entries().empty());
  EXPECT_TRUE(journal.append(sample_trace(0), sample_delta()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A header plus records for traces 0..2, as append() writes them.
std::string three_record_journal(const std::string& path) {
  CampaignJournal journal;
  std::string error;
  EXPECT_TRUE(journal.open(path, sample_meta(), &error)) << error;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(journal.append(sample_trace(i), sample_delta()));
  return read_file(path);
}

// A kill inside append() leaves the last record without its newline. It
// was never committed: open() drops it, truncates it from the file, and
// the re-run trace appends on a clean line boundary.
TEST(CampaignJournal, TornLastRecordIsTruncatedAndResumes) {
  TempFile file("journal_torn_tail");
  const std::string pristine = three_record_journal(file.path);
  const std::size_t last_start = pristine.rfind('\n', pristine.size() - 2) + 1;
  write_file(file.path, pristine.substr(0, last_start + (pristine.size() - last_start) / 2));

  std::string error;
  CampaignJournal journal;
  ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
  EXPECT_EQ(journal.entries().size(), 2u);
  EXPECT_FALSE(journal.has(2));
  EXPECT_EQ(read_file(file.path), pristine.substr(0, last_start));
  ASSERT_TRUE(journal.append(sample_trace(2), sample_delta()));
  EXPECT_EQ(read_file(file.path), pristine);
}

// The same with only the final newline lost: the record is whole but not
// committed. Accepting it would glue the next append onto its line, and
// the journal after that would refuse to open ("malformed record").
TEST(CampaignJournal, RecordMissingOnlyItsNewlineIsNotGluedToTheNext) {
  TempFile file("journal_lost_newline");
  const std::string pristine = three_record_journal(file.path);
  write_file(file.path, pristine.substr(0, pristine.size() - 1));

  std::string error;
  {
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, sample_meta(), &error)) << error;
    EXPECT_EQ(journal.entries().size(), 2u);
    ASSERT_TRUE(journal.append(sample_trace(2), sample_delta()));
    ASSERT_TRUE(journal.append(sample_trace(3), sample_delta()));
  }
  CampaignJournal reopened;
  ASSERT_TRUE(reopened.open(file.path, sample_meta(), &error)) << error;
  EXPECT_EQ(reopened.entries().size(), 4u);
}

// Newline-terminated damage is still refused, torn tail or not, and a torn
// first line only counts as a torn header when it is one.
TEST(CampaignJournal, TornTailPolicyStillRefusesDamageAndForeignFiles) {
  TempFile file("journal_torn_refusals");
  const std::string pristine = three_record_journal(file.path);
  std::string damaged = pristine;
  damaged[pristine.find("\nT ") + 3] = '9';  // first record's index token
  write_file(file.path, damaged + "T 4 torn");
  std::string error;
  CampaignJournal journal;
  EXPECT_FALSE(journal.open(file.path, sample_meta(), &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_EQ(read_file(file.path), damaged + "T 4 torn") << "a refused journal was modified";

  const std::string header = pristine.substr(0, pristine.find('\n'));
  write_file(file.path, header.substr(0, header.size() / 2));
  CampaignJournal torn_header;
  ASSERT_TRUE(torn_header.open(file.path, sample_meta(), &error)) << error;
  EXPECT_TRUE(torn_header.entries().empty());

  write_file(file.path, "not a journal");
  CampaignJournal foreign;
  EXPECT_FALSE(foreign.open(file.path, sample_meta(), &error));
  EXPECT_NE(error.find("different campaign"), std::string::npos) << error;
  EXPECT_EQ(read_file(file.path), "not a journal");
}

TEST(PlanFingerprint, TracksScheduleShape) {
  CampaignPlan a;
  a.entries.push_back({"UGla wired", 1, 3});
  a.entries.push_back({"EC2 Tok", 2, 2});
  CampaignPlan b = a;
  CampaignPlan c = a;
  c.entries[1].count = 3;
  EXPECT_EQ(plan_fingerprint(a), plan_fingerprint(b));
  EXPECT_NE(plan_fingerprint(a), plan_fingerprint(c));
}

}  // namespace
}  // namespace ecnprobe::measure
