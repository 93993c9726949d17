// Profiler's Chrome-trace sidecar: a write that does not land is reported,
// so `ecnprobe campaign --profile --record` fails like any other export.
#include "ecnprobe/obs/profiler.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace ecnprobe::obs {
namespace {

void record_one_slice(Profiler& profiler) {
  profiler.set_enabled(true);
  const auto start = std::chrono::steady_clock::now();
  profiler.record("probe", start, start + std::chrono::microseconds(5));
}

TEST(Profiler, ChromeTraceWritesTheSlices) {
  Profiler profiler;
  record_one_slice(profiler);
  const std::string path = ::testing::TempDir() + "/profile_ok.json";
  ASSERT_TRUE(profiler.write_chrome_trace(path));
  std::ifstream in(path);
  const std::string text(std::istreambuf_iterator<char>(in), {});
  EXPECT_NE(text.find("\"name\":\"probe\""), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Profiler, ChromeTraceReportsAFailedWrite) {
  Profiler profiler;
  record_one_slice(profiler);
  EXPECT_FALSE(profiler.write_chrome_trace(::testing::TempDir() + "/missing/p.json"));
  // /dev/full accepts the open and fails when the buffered bytes flush.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full is not writable";
  EXPECT_FALSE(profiler.write_chrome_trace("/dev/full"));
}

}  // namespace
}  // namespace ecnprobe::obs
