// Micro-benchmarks of the wire codecs: the per-packet costs that bound the
// simulator's campaign throughput and a live prober's packet rates.
//
// Two modes:
//   bench_micro_wire [google-benchmark flags]   interactive tables
//   bench_micro_wire --bench-json=PATH          BENCH_wire.json metrics:
//     RFC 1624 incremental-vs-full checksum cost, probe encode cost, and
//     the deterministic bytes-per-probe and packet-record sizes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "bench_common.hpp"
#include "ecnprobe/netsim/capture.hpp"
#include "ecnprobe/obs/flight.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"
#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/dnsmsg.hpp"
#include "ecnprobe/wire/http.hpp"
#include "ecnprobe/wire/ntp.hpp"
#include "ecnprobe/wire/tcp.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace {

using namespace ecnprobe;

const wire::Ipv4Address kSrc(10, 0, 0, 1);
const wire::Ipv4Address kDst(11, 0, 0, 2);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(48)->Arg(576)->Arg(1500);

void BM_Ipv4HeaderEncode(benchmark::State& state) {
  wire::Ipv4Header header;
  header.src = kSrc;
  header.dst = kDst;
  header.total_length = 48;
  for (auto _ : state) {
    wire::ByteWriter out(wire::Ipv4Header::kSize);
    header.encode(out);
    benchmark::DoNotOptimize(out.view().data());
  }
}
BENCHMARK(BM_Ipv4HeaderEncode);

void BM_Ipv4HeaderDecode(benchmark::State& state) {
  wire::Ipv4Header header;
  header.src = kSrc;
  header.dst = kDst;
  header.total_length = 48;
  wire::ByteWriter out(wire::Ipv4Header::kSize);
  header.encode(out);
  const auto bytes = out.take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_ipv4_header(bytes));
  }
}
BENCHMARK(BM_Ipv4HeaderDecode);

void BM_UdpDatagramBuild(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(48, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload, wire::Ecn::Ect0));
  }
}
BENCHMARK(BM_UdpDatagramBuild);

void BM_TcpSegmentRoundTrip(benchmark::State& state) {
  wire::TcpHeader header;
  header.src_port = 40000;
  header.dst_port = 80;
  header.flags.ack = true;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    const auto segment = wire::encode_tcp_segment(kSrc, kDst, header, payload);
    benchmark::DoNotOptimize(wire::decode_tcp_segment(kSrc, kDst, segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TcpSegmentRoundTrip)->Arg(0)->Arg(512)->Arg(1400);

void BM_NtpPacketRoundTrip(benchmark::State& state) {
  const auto packet = wire::NtpPacket::make_client_request(
      wire::NtpTimestamp::from_unix_nanos(1'428'883'200'000'000'000));
  for (auto _ : state) {
    const auto bytes = packet.encode();
    benchmark::DoNotOptimize(wire::NtpPacket::decode(bytes));
  }
}
BENCHMARK(BM_NtpPacketRoundTrip);

void BM_DnsResponseRoundTrip(benchmark::State& state) {
  const auto query = wire::DnsMessage::make_query(1, "europe.pool.ntp.org");
  std::vector<wire::DnsRecord> answers;
  for (int i = 0; i < 4; ++i) {
    answers.push_back(wire::DnsRecord::make_a(
        "europe.pool.ntp.org", wire::Ipv4Address(11, 0, 0, static_cast<std::uint8_t>(i)),
        150));
  }
  const auto response = wire::DnsMessage::make_response(query, wire::DnsRcode::NoError,
                                                        answers);
  for (auto _ : state) {
    const auto bytes = response.encode();
    benchmark::DoNotOptimize(wire::DnsMessage::decode(bytes));
  }
}
BENCHMARK(BM_DnsResponseRoundTrip);

void BM_IcmpQuotationRoundTrip(benchmark::State& state) {
  const auto probe = wire::make_udp_datagram(kSrc, kDst, 44001, 33435,
                                             std::vector<std::uint8_t>(8, 0),
                                             wire::Ecn::Ect0, 3);
  const auto error = wire::make_time_exceeded(wire::Ipv4Address(12, 0, 0, 1), probe);
  for (auto _ : state) {
    const auto decoded = wire::decode_icmp_message(error.payload);
    benchmark::DoNotOptimize(wire::parse_quotation(decoded->message.body));
  }
}
BENCHMARK(BM_IcmpQuotationRoundTrip);

void BM_HttpResponseParse(benchmark::State& state) {
  wire::HttpResponse response;
  response.status = 302;
  response.headers["Location"] = "http://www.pool.ntp.org/";
  response.headers["Server"] = "nginx";
  const auto text = response.serialize();
  for (auto _ : state) {
    wire::HttpParser parser(wire::HttpParser::Kind::Response);
    parser.feed(text);
    benchmark::DoNotOptimize(parser.complete());
  }
}
BENCHMARK(BM_HttpResponseParse);

// -- --bench-json mode --------------------------------------------------------

/// Nanoseconds per operation of one timed run of `op`, `iters` times.
template <typename Fn>
double time_ns_per_op(std::uint64_t iters, Fn& op) {
  const ecnprobe::bench::Stopwatch timer;
  for (std::uint64_t i = 0; i < iters; ++i) op(i);
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

/// Best of nine runs: the minimum is the least-interference estimate.
template <typename Fn>
double ns_per_op(std::uint64_t iters, Fn&& op) {
  double best = 1e300;
  for (int rep = 0; rep < 9; ++rep) best = std::min(best, time_ns_per_op(iters, op));
  return best;
}

/// Best nanoseconds per operation of `a` and of `b` over `rounds` rounds
/// that interleave the two, alternating which goes first, so a slow stretch
/// of the host lands on both sides of a ratio built from them.
template <typename A, typename B>
std::pair<double, double> best_interleaved(std::uint64_t iters, int rounds, A&& a, B&& b) {
  double best_a = 1e300, best_b = 1e300;
  for (int round = 0; round < rounds; ++round) {
    if (round % 2 == 0) {
      best_a = std::min(best_a, time_ns_per_op(iters, a));
      best_b = std::min(best_b, time_ns_per_op(iters, b));
    } else {
      best_b = std::min(best_b, time_ns_per_op(iters, b));
      best_a = std::min(best_a, time_ns_per_op(iters, a));
    }
  }
  return {best_a, best_b};
}

int run_bench_json(const std::string& path) {
  using namespace ecnprobe;

  // A router TTL rewrite: full 20-byte header recompute vs RFC 1624 patch.
  std::vector<std::uint8_t> header(wire::Ipv4Header::kSize);
  util::Rng rng(1);
  header[0] = 0x45;
  for (std::size_t i = 1; i < header.size(); ++i) {
    header[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  volatile std::uint16_t sink = 0;
  std::uint16_t check = wire::internet_checksum(header);
  const auto [full_ns, incr_ns] = best_interleaved(
      2'000'000, 15,
      [&](std::uint64_t i) {
        header[8] = static_cast<std::uint8_t>(i);  // the TTL byte
        sink = wire::internet_checksum(header);
      },
      [&](std::uint64_t i) {
        const auto old_word = static_cast<std::uint16_t>((header[8] << 8) | header[9]);
        header[8] = static_cast<std::uint8_t>(i);
        const auto new_word = static_cast<std::uint16_t>((header[8] << 8) | header[9]);
        check = wire::checksum_update(check, old_word, new_word);
        sink = check;
      });

  // The ratio's deterministic guard: words summed per RFC 1624 patch by
  // wire::checksum_update itself. It sums 3; re-summing the header would
  // sum 10, whatever the host's timing. The simulator's datapath does not
  // patch: a router's TTL or ECN rewrite is a field write that sums 0
  // words, and encode() sums the header checksum once.
  constexpr int kRewrites = 1000;
  std::uint16_t patched = check;
  const std::uint64_t words_before = wire::checksum_words_summed();
  for (int i = 0; i < kRewrites; ++i) {
    const int ttl = 255 - i % 200;  // a TTL decrement of a UDP header's TTL/protocol word
    patched = wire::checksum_update(patched, static_cast<std::uint16_t>((ttl << 8) | 17),
                                    static_cast<std::uint16_t>(((ttl - 1) << 8) | 17));
  }
  sink = patched;
  const double words_per_rewrite =
      static_cast<double>(wire::checksum_words_summed() - words_before) / kRewrites;

  // Probe encode cost and the deterministic on-the-wire size of a probe.
  const std::vector<std::uint8_t> payload(48, 0xab);
  const double encode_cold_ns = ns_per_op(200'000, [&](std::uint64_t) {
    auto dgram = wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload,
                                         wire::Ecn::Ect0);
    sink = static_cast<std::uint16_t>(dgram.encode().size());
  });
  const double probe_wire_bytes = static_cast<double>(
      wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload, wire::Ecn::Ect0)
          .encode()
          .size());

  bench::BenchJson json("wire");
  json.add("checksum_full_ns_per_rewrite", full_ns, "ns");
  json.add("checksum_incremental_ns_per_rewrite", incr_ns, "ns");
  json.add("incremental_checksum_speedup", incr_ns > 0.0 ? full_ns / incr_ns : 0.0,
           "x", /*guarded=*/true);
  json.add_exact("checksum_words_per_rewrite", words_per_rewrite, "count");
  json.add("probe_encode_cold_ns", encode_cold_ns, "ns");
  json.add("udp_probe_wire_bytes", probe_wire_bytes, "bytes", /*guarded=*/true);
  // Every captured packet and every flight event is one record: a record
  // that grows back fails CI.
  json.add_exact("datagram_bytes", static_cast<double>(sizeof(wire::Datagram)), "bytes");
  json.add_exact("captured_packet_bytes", static_cast<double>(sizeof(netsim::CapturedPacket)),
                 "bytes");
  json.add_exact("flight_event_bytes", static_cast<double>(sizeof(obs::FlightEvent)),
                 "bytes");
  std::printf("checksum rewrite: full %.1fns, incremental %.1fns (%.1fx), %.2f words "
              "summed per patch; probe encode %.0fns; records: datagram %zuB, "
              "captured packet %zuB, flight event %zuB\n",
              full_ns, incr_ns, incr_ns > 0.0 ? full_ns / incr_ns : 0.0, words_per_rewrite,
              encode_cold_ns, sizeof(wire::Datagram), sizeof(netsim::CapturedPacket),
              sizeof(obs::FlightEvent));
  return json.write(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ecnprobe::bench::take_bench_json_arg(&argc, argv);
  if (!json_path.empty()) return run_bench_json(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
