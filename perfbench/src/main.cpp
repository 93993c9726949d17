// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics: a few standalone set-ups,
// then untraced passes of the workload until S seconds have passed (at
// least one), reported as medians over the passes. The k-th set-up and
// pass run on a world seeded from (N, k), the first on N itself.
// --trace 1 measures the per-layer metrics: one untraced pass, then two
// traced passes of the same inputs. Their outputs must be byte-identical
// and the traced passes' deterministic counts must repeat exactly.
//
// Every set-up and pass runs in its own forked child of this small,
// single-threaded process. The library keeps memory after a campaign's
// World is gone (the live heap grows ~26 MB per full-pool trace), so
// passes sharing one process would each start bigger and run slower than
// the last; a child per pass gives every sample the same starting state
// and its own peak RSS.
//
// Every pass checks its outputs. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every check passed.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "ecnprobe/util/rng.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Standalone set-ups per --trace 0 run; with one more per pass, setup_s
/// is a median of at least this many + 1 samples.
constexpr int kSetupRepetitions = 6;

/// World seed of the k-th set-up or pass of a run: the run's own seed
/// first, then seeds derived from it. A world's structure moves the cost
/// of a pass by up to ~10% at equal simulated work (two full-pool sweeps
/// differing by 1.3% in events took 6.0 s and 6.6 s of CPU, repeatably),
/// so a run's median spans several worlds instead of resting on one.
std::uint64_t world_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : ecnprobe::util::derive_seed(seed, static_cast<std::uint64_t>(k));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  Size size = Size::Full;
  std::string out_dir = ".bench_build/perfbench-out";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--size full|tiny] [--out-dir DIR]\n"
               "workloads:");
  for (const auto& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      errno = 0;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->size = value == "tiny" ? Size::Tiny : Size::Full;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && args->trace >= 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// -- passes in forked children ---------------------------------------------------

/// What a child reports to the parent: one "key value" line per field, so
/// only plain numbers and text cross the pipe.
struct ChildPass {
  PassResult pass;
  double peak_rss_mb = 0.0;
  std::vector<double> setups;  ///< set-up children only
};

std::string encode(const PassResult& pass) {
  std::string out = "wall " + number(pass.wall_s) + "\ncpu " + number(pass.cpu_s) +
                    "\nsetup " + number(pass.setup_s) +
                    "\nphase " + number(pass.phase_s) +
                    "\nplanned " + std::to_string(pass.ops_planned) +
                    "\nfailed " + std::to_string(pass.ops_failed) +
                    "\ndigest " + std::to_string(pass.digest) +
                    "\npeak " + number(peak_rss_mb()) + "\n";
  for (auto problem : pass.problems) {
    std::replace(problem.begin(), problem.end(), '\n', ' ');
    out += "problem " + problem + "\n";
  }
  for (const auto& [name, metric] : pass.layers) {
    out += "layer " + name + " " + metric.unit + " " + number(metric.value) + "\n";
  }
  for (const auto& [name, count] : pass.counts) {
    out += "count " + name + " " + std::to_string(count) + "\n";
  }
  return out;
}

ChildPass decode(const std::string& text) {
  ChildPass child;
  auto& pass = child.pass;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "wall") {
      in >> pass.wall_s;
    } else if (key == "cpu") {
      in >> pass.cpu_s;
    } else if (key == "setup") {
      in >> pass.setup_s;
    } else if (key == "phase") {
      in >> pass.phase_s;
    } else if (key == "planned") {
      in >> pass.ops_planned;
    } else if (key == "failed") {
      in >> pass.ops_failed;
    } else if (key == "digest") {
      in >> pass.digest;
    } else if (key == "peak") {
      in >> child.peak_rss_mb;
    } else if (key == "setup_once") {
      double s = 0.0;
      in >> s;
      child.setups.push_back(s);
    } else if (key == "problem") {
      pass.problems.push_back(line.substr(std::min<std::size_t>(line.size(), 8)));
    } else if (key == "layer") {
      std::string name;
      Metric metric;
      in >> name >> metric.unit >> metric.value;
      pass.layers[name] = metric;
    } else if (key == "count") {
      std::string name;
      std::uint64_t count = 0;
      in >> name >> count;
      pass.counts[name] = count;
    }
  }
  return child;
}

/// Runs `body` in a forked child, waits for it, and decodes what it wrote.
/// A child that throws or dies is reported as a problem.
ChildPass in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    int code = 0;
    try {
      out = body();
    } catch (const std::exception& e) {
      out = std::string("problem ") + e.what() + "\n";
      code = 1;
    }
    for (std::size_t done = 0; done < out.size();) {
      const auto n = write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const auto n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ChildPass child = decode(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    child.pass.problems.push_back(
        WIFSIGNALED(status) ? "child killed by signal " + std::to_string(WTERMSIG(status))
                            : "child exited with status " + std::to_string(WEXITSTATUS(status)));
    child.pass.ops_failed = child.pass.ops_planned;
  }
  return child;
}

// -- the two kinds of run --------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Books a pass. A problem found only by comparing passes (their outputs
  /// differ) fails every operation in the pass.
  void add(const PassResult& pass, const std::string& label, bool output_differs = false) {
    attempted += pass.ops_planned;
    failed += output_differs ? pass.ops_planned : pass.ops_failed;
    for (const auto& problem : pass.problems) problems.push_back(label + ": " + problem);
  }
};

void print_result(const Outcome& outcome, const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += outcome.problems.empty() && outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void log_pass(const std::string& label, const ChildPass& child) {
  const auto& pass = child.pass;
  std::fprintf(stderr,
               "%s: wall %.3f s, cpu %.3f s, setup %.4f s, phase %.3f s, peak rss %.0f MB, "
               "digest %s\n",
               label.c_str(), pass.wall_s, pass.cpu_s, pass.setup_s, pass.phase_s,
               child.peak_rss_mb,
               hex(pass.digest).c_str());
}

std::unique_ptr<Workload> workload_for(const Args& args, int k) {
  return make_workload(args.workload, world_seed(args.seed, k), args.size, args.out_dir);
}

/// --trace 0: standalone set-ups, then untraced passes for `seconds`, the
/// k-th of each on the world of world_seed(seed, k).
void run_untraced(const Args& args, Outcome* outcome, Metrics* metrics) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepetitions; ++k) {
    const auto workload = workload_for(args, k);
    const auto child =
        in_child([&] { return "setup_once " + number(workload->setup_once()) + "\n"; });
    for (const auto& problem : child.pass.problems) {
      outcome->problems.push_back("set-up: " + problem);
    }
    setups.insert(setups.end(), child.setups.begin(), child.setups.end());
  }
  std::vector<ChildPass> passes;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const auto workload = workload_for(args, static_cast<int>(passes.size()));
    passes.push_back(in_child([&] { return encode(workload->run_pass(nullptr)); }));
    log_pass("pass " + std::to_string(passes.size()), passes.back());
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() <
           args.seconds);

  std::vector<double> wall;
  std::vector<double> throughput;
  std::vector<double> peak;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto& pass = passes[i].pass;
    outcome->add(pass, "pass " + std::to_string(i + 1));
    wall.push_back(pass.wall_s);
    setups.push_back(pass.setup_s);
    throughput.push_back(
        pass.phase_s > 0.0
            ? static_cast<double>(pass.ops_planned - pass.ops_failed) / pass.phase_s
            : 0.0);
    peak.push_back(passes[i].peak_rss_mb);
  }
  std::printf("output digest: %s\n", hex(passes.front().pass.digest).c_str());
  (*metrics)["wall_s"] = {median(wall), "s"};
  (*metrics)["setup_s"] = {median(setups), "s"};
  (*metrics)["ops_per_s"] = {median(throughput), "ops/s"};
  (*metrics)["peak_rss_mb"] = {median(peak), "MB"};
  (*metrics)["completed_ratio"] = {
      static_cast<double>(outcome->attempted - std::min(outcome->failed, outcome->attempted)) /
          static_cast<double>(std::max<std::uint64_t>(outcome->attempted, 1)),
      "ratio"};
}

/// --trace 1: one untraced pass, two traced passes and the wire replay,
/// all on the world of the run's own seed (the first pass of --trace 0).
void run_traced(Workload& workload, const Args& args, Outcome* outcome, Metrics* metrics) {
  const auto spans_path = args.out_dir + "/" + args.workload + "-seed" +
                          std::to_string(args.seed) + ".spans.json";
  const auto traced_pass = [&](bool first) {
    return in_child([&] {
      set_alloc_counting(true);
      SpanRecorder spans;
      PassResult pass = workload.run_pass(&spans);
      set_alloc_counting(false);
      if (first) {
        const auto failures = replay_wire(pass.replay, &pass.layers);
        if (failures != 0) {
          pass.problems.push_back(std::to_string(failures) +
                                  " replayed datagrams failed encode -> decode -> encode");
          pass.ops_failed = pass.ops_planned;
        }
        if (!spans.write_chrome_trace(spans_path)) {
          pass.problems.push_back("cannot write " + spans_path);
        }
      }
      return encode(pass);
    });
  };
  const auto untraced = in_child([&] { return encode(workload.run_pass(nullptr)); });
  const auto traced = traced_pass(true);
  const auto again = traced_pass(false);
  log_pass("untraced pass", untraced);
  log_pass("traced pass", traced);
  log_pass("second traced pass", again);

  outcome->add(untraced.pass, "untraced pass");
  const bool traced_differs = traced.pass.digest != untraced.pass.digest;
  if (traced_differs) {
    outcome->problems.push_back("traced pass: output digest differs from the untraced pass");
  }
  outcome->add(traced.pass, "traced pass", traced_differs);
  bool again_differs = again.pass.digest != untraced.pass.digest;
  if (again_differs) {
    outcome->problems.push_back(
        "second traced pass: output digest differs from the untraced pass");
  }
  if (again.pass.counts != traced.pass.counts) {
    outcome->problems.push_back("deterministic per-layer counts differ between traced passes");
    again_differs = true;
  }
  outcome->add(again.pass, "second traced pass", again_differs);

  *metrics = traced.pass.layers;
  (*metrics)["trace_overhead_ratio"] = {
      (traced.pass.wall_s + again.pass.wall_s) / 2.0 / untraced.pass.wall_s, "ratio"};
  std::printf("output digest: %s\n", hex(untraced.pass.digest).c_str());
  std::string counts = "deterministic counts:";
  for (const auto& [name, count] : traced.pass.counts) {
    counts += " " + name + "=" + std::to_string(count);
  }
  std::printf("%s\n", counts.c_str());
  std::fprintf(stderr, "spans: %s\n", spans_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return usage();
  try {
    std::filesystem::create_directories(args.out_dir);
    auto workload = workload_for(args, 0);
    if (!workload) return usage();
    Outcome outcome;
    Metrics metrics;
    if (args.trace == 0) {
      run_untraced(args, &outcome, &metrics);
    } else {
      run_traced(*workload, args, &outcome, &metrics);
    }
    for (const auto& problem : outcome.problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
    }
    print_result(outcome, metrics);
    return outcome.problems.empty() && outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
