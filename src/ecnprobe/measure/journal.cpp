#include "ecnprobe/measure/journal.hpp"

#include <cstring>
#include <filesystem>

#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/util/hash.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::measure {
namespace {

// Separates the trace record from its obs delta inside one payload.
constexpr char kUnitSeparator = '\x1e';

std::string hex64(std::uint64_t v) {
  return util::strf("%016llx", static_cast<unsigned long long>(v));
}

bool parse_int_tok(const std::string& tok, int* out) {
  const auto v = util::parse_integer<int>(tok);
  if (!v || *v < -(1 << 30) || *v > (1 << 30)) return false;
  *out = *v;
  return true;
}

// RTTs round-trip as raw IEEE-754 bits: the replayed Trace is not merely
// close to the live one, it is the same object bit for bit.
std::string rtt_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return hex64(bits);
}

bool parse_rtt_bits(const std::string& tok, double* out) {
  const auto bits = util::parse_integer<std::uint64_t>(tok, 16);
  if (!bits) return false;
  std::memcpy(out, &*bits, sizeof(*bits));
  return true;
}

void encode_udp(std::string& out, const UdpProbeOutcome& udp) {
  out += util::strf(" %d %d ", udp.reachable ? 1 : 0, udp.attempts);
  out += rtt_bits(udp.rtt_ms);
}

void encode_tcp(std::string& out, const TcpProbeOutcome& tcp) {
  out += util::strf(" %d %d %d %d", tcp.connected ? 1 : 0, tcp.ecn_negotiated ? 1 : 0,
                    tcp.got_response ? 1 : 0, tcp.http_status);
}

std::string encode_trace(const Trace& trace) {
  std::string out = obs::escape_token(trace.vantage);
  out += util::strf(" %d %d %zu", trace.batch, trace.index, trace.servers.size());
  for (const auto& server : trace.servers) {
    out += util::strf(" %u", server.server.value());
    encode_udp(out, server.udp_plain);
    encode_udp(out, server.udp_ect0);
    encode_tcp(out, server.tcp_plain);
    encode_tcp(out, server.tcp_ecn);
  }
  return out;
}

struct TokenCursor {
  std::vector<std::string> toks;
  std::size_t next = 0;

  bool take(std::string* out) {
    if (next >= toks.size()) return false;
    *out = toks[next++];
    return true;
  }
  bool take_int(int* out) {
    std::string tok;
    return take(&tok) && parse_int_tok(tok, out);
  }
  bool take_bool(bool* out) {
    int v = 0;
    if (!take_int(&v) || (v != 0 && v != 1)) return false;
    *out = v == 1;
    return true;
  }
};

bool decode_udp(TokenCursor& cur, UdpProbeOutcome* udp) {
  std::string tok;
  return cur.take_bool(&udp->reachable) && cur.take_int(&udp->attempts) &&
         cur.take(&tok) && parse_rtt_bits(tok, &udp->rtt_ms);
}

bool decode_tcp(TokenCursor& cur, TcpProbeOutcome* tcp) {
  return cur.take_bool(&tcp->connected) && cur.take_bool(&tcp->ecn_negotiated) &&
         cur.take_bool(&tcp->got_response) && cur.take_int(&tcp->http_status);
}

bool decode_trace(const std::string& text, Trace* out) {
  TokenCursor cur;
  cur.toks = util::split(text, ' ');
  std::string vantage_tok;
  int nservers = 0;
  if (!cur.take(&vantage_tok)) return false;
  const auto vantage = obs::unescape_token(vantage_tok);
  if (!vantage) return false;
  out->vantage = *vantage;
  if (!cur.take_int(&out->batch) || !cur.take_int(&out->index) ||
      !cur.take_int(&nservers) || nservers < 0) {
    return false;
  }
  out->servers.clear();
  out->servers.reserve(static_cast<std::size_t>(nservers));
  for (int i = 0; i < nservers; ++i) {
    ServerResult server;
    std::string addr_tok;
    if (!cur.take(&addr_tok)) return false;
    const auto addr = util::parse_integer<std::uint32_t>(addr_tok);
    if (!addr) return false;
    server.server = wire::Ipv4Address(*addr);
    if (!decode_udp(cur, &server.udp_plain) || !decode_udp(cur, &server.udp_ect0) ||
        !decode_tcp(cur, &server.tcp_plain) || !decode_tcp(cur, &server.tcp_ecn)) {
      return false;
    }
    out->servers.push_back(std::move(server));
  }
  return cur.next == cur.toks.size();
}

/// A new journal's header is v2; an existing one keeps its version.
std::string header_line(const JournalMeta& meta, int version = 2) {
  std::string line =
      util::strf("ecnprobe-journal v%d plan=%s faults=%s seed=%llu traces=%d servers=%d",
                 version, obs::escape_token(meta.plan).c_str(),
                 obs::escape_token(meta.faults).c_str(),
                 static_cast<unsigned long long>(meta.seed), meta.total_traces,
                 meta.server_count);
  if (version >= 2) {
    line += " sched=" + obs::escape_token(meta.sched) +
            " telemetry=" + obs::escape_token(meta.telemetry) +
            " timeseries=" + obs::escape_token(meta.timeseries);
  }
  return line;
}

/// The header version a (possibly torn) first line was written with.
int header_version(std::string_view line) {
  return line.starts_with("ecnprobe-journal v1 ") ? 1 : 2;
}

std::string record_line(int index, const Trace& trace, const obs::ObsSnapshot& delta) {
  std::string payload = encode_trace(trace);
  payload.push_back(kUnitSeparator);
  payload += obs::encode_obs(delta);
  const std::string token = obs::escape_token(payload);
  return util::strf("T %d %s %s", index, hex64(util::fnv1a64(token)).c_str(),
                    token.c_str());
}

}  // namespace

std::string plan_fingerprint(const CampaignPlan& plan) {
  std::string canon;
  for (const auto& entry : plan.entries) {
    canon += entry.vantage;
    canon += util::strf("|%d|%d;", entry.batch, entry.count);
  }
  return hex64(util::fnv1a64(canon));
}

bool CampaignJournal::open(const std::string& path, const JournalMeta& meta,
                           std::string* error) {
  meta_ = meta;
  path_ = path;
  entries_.clear();

  std::ifstream in(path, std::ios::binary);
  if (in.is_open()) {
    // A record is committed once its newline is on disk. A kill inside
    // append() can leave only an unterminated last line: it is not read as
    // a record, and is truncated away below, so appending resumes on a line
    // boundary instead of gluing the next record onto the torn one.
    std::string line;
    std::string torn;             // the unterminated last line, if any
    std::uintmax_t committed = 0;  // bytes through the last newline
    int line_no = 0;
    while (std::getline(in, line)) {
      if (in.eof()) {  // no newline after it
        torn = std::move(line);
        break;
      }
      committed += line.size() + 1;
      ++line_no;
      if (line.empty()) continue;
      if (line_no == 1) {
        const std::string expected_header = header_line(meta, header_version(line));
        if (line != expected_header) {
          if (error != nullptr) {
            *error = "journal " + path + " belongs to a different campaign\n  have: " +
                     line + "\n  want: " + expected_header;
          }
          return false;
        }
        continue;
      }
      const auto fail = [&](const std::string& what) {
        if (error != nullptr) {
          *error = "journal " + path + " line " + std::to_string(line_no) + ": " + what;
        }
        return false;
      };
      TokenCursor cur;
      cur.toks = util::split(line, ' ');
      std::string tag, checksum_tok, payload_tok;
      int index = 0;
      if (!cur.take(&tag) || tag != "T") return fail("unknown record tag");
      if (!cur.take_int(&index) || index < 0 || index >= meta.total_traces) {
        return fail("bad trace index");
      }
      if (!cur.take(&checksum_tok) || !cur.take(&payload_tok) || cur.next != cur.toks.size()) {
        return fail("malformed record");
      }
      // Compare against the canonical rendering, not the parsed value: a
      // case-flipped or re-padded hex token parses to the same number but
      // is not a byte the writer ever produced, so it still means the
      // line was altered after it was written.
      if (checksum_tok != hex64(util::fnv1a64(payload_tok))) {
        return fail("checksum mismatch (corrupt entry for trace " + std::to_string(index) +
                    "; refusing to replay it)");
      }
      const auto payload = obs::unescape_token(payload_tok);
      if (!payload) return fail("bad payload escape");
      const auto sep = payload->find(kUnitSeparator);
      if (sep == std::string::npos) return fail("payload missing delta separator");
      Entry entry;
      if (!decode_trace(payload->substr(0, sep), &entry.trace)) {
        return fail("undecodable trace record");
      }
      auto delta = obs::decode_obs(payload->substr(sep + 1));
      if (!delta) return fail("undecodable metrics delta: " + delta.error().message);
      if (entry.trace.index != index) return fail("trace index disagrees with record");
      entry.delta = std::move(*delta);
      entries_[index] = std::move(entry);
    }
    in.close();
    if (line_no == 0) {
      // Nothing committed: a zero-length file, or a header torn by a crash
      // before its newline -- treat as fresh. Anything else is not this
      // journal.
      const std::string torn_header = header_line(meta, header_version(torn));
      if (torn_header.compare(0, torn.size(), torn) != 0) {
        if (error != nullptr) {
          *error = "journal " + path + " belongs to a different campaign\n  have: " + torn +
                   "\n  want: " + torn_header;
        }
        return false;
      }
      out_.open(path, std::ios::trunc);
      if (!out_.is_open()) {
        if (error != nullptr) *error = "cannot write journal " + path;
        return false;
      }
      out_ << header_line(meta) << '\n' << std::flush;
      return true;
    }
    if (!torn.empty()) {
      std::error_code ec;
      std::filesystem::resize_file(path, committed, ec);
      if (ec) {
        if (error != nullptr) {
          *error = "cannot truncate the torn tail of journal " + path + ": " + ec.message();
        }
        return false;
      }
    }
    out_.open(path, std::ios::app);
    if (!out_.is_open()) {
      if (error != nullptr) *error = "cannot append to journal " + path;
      return false;
    }
    return true;
  }

  out_.open(path, std::ios::trunc);
  if (!out_.is_open()) {
    if (error != nullptr) *error = "cannot create journal " + path;
    return false;
  }
  out_ << header_line(meta) << '\n' << std::flush;
  return true;
}

std::vector<std::pair<int, CampaignJournal::Entry>> CampaignJournal::take_recovered() {
  std::vector<std::pair<int, Entry>> recovered;
  for (auto& [index, entry] : entries_) {
    if (!entry) continue;
    recovered.emplace_back(index, std::move(*entry));
    entry.reset();
  }
  return recovered;
}

bool CampaignJournal::append(const Trace& trace, const obs::ObsSnapshot& delta) {
  if (!out_.is_open()) return false;
  if (entries_.count(trace.index) != 0) return true;  // replayed: already durable
  out_ << record_line(trace.index, trace, delta) << '\n' << std::flush;
  entries_.emplace(trace.index, std::nullopt);
  return out_.good();
}

}  // namespace ecnprobe::measure
