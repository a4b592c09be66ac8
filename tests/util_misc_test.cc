#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "util/disk_set.h"
#include "util/env.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace ftms {
namespace {

TEST(UnitsTest, RateConversions) {
  EXPECT_DOUBLE_EQ(MbitsToMBytes(1.5), 0.1875);
  EXPECT_DOUBLE_EQ(MbitsToMBytes(4.5), 0.5625);
  EXPECT_DOUBLE_EQ(MBytesToMbits(0.1875), 1.5);
  EXPECT_DOUBLE_EQ(kMpeg1RateMbS, 0.1875);
  EXPECT_DOUBLE_EQ(kMpeg2RateMbS, 0.5625);
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(HoursToYears(8760.0), 1.0);
  EXPECT_DOUBLE_EQ(YearsToHours(2.0), 17520.0);
  EXPECT_DOUBLE_EQ(HoursToYears(YearsToHours(123.4)), 123.4);
  EXPECT_DOUBLE_EQ(KilobytesToMegabytes(50.0), 0.05);
}

TEST(LogTest, LevelFiltering) {
  // Capture stderr around a filtered and an emitted message.
  SetLogLevel(LogLevel::kWarning);
  testing::internal::CaptureStderr();
  FTMS_LOG(Debug) << "hidden";
  FTMS_LOG(Warning) << "visible " << 42;
  std::string output = testing::internal::GetCapturedStderr();
  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible 42"), std::string::npos);
  EXPECT_NE(output.find("[W "), std::string::npos);

  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  FTMS_LOG(Debug) << "now shown";
  output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("now shown"), std::string::npos);
  SetLogLevel(LogLevel::kWarning);  // restore default
}

TEST(LogTest, ParseLogLevel) {
  // Names, case-insensitive (what FTMS_LOG_LEVEL accepts at startup).
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("Error"), LogLevel::kError);
  // Numeric forms.
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("1"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("3"), LogLevel::kError);
  // Garbage is rejected, not guessed.
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("4"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("-1"), std::nullopt);
  EXPECT_EQ(ParseLogLevel(" info"), std::nullopt);
}

TEST(LogTest, IncludesSourceLocation) {
  SetLogLevel(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  FTMS_LOG(Info) << "located";
  const std::string output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("util_misc_test.cc"), std::string::npos);
  SetLogLevel(LogLevel::kWarning);
}

TEST(EnvIntTest, AcceptsOnlyWholeDecimalsInRange) {
  constexpr const char* kKnob = "FTMS_ENV_INT_TEST_KNOB";
  unsetenv(kKnob);
  EXPECT_EQ(EnvInt(kKnob, 7, 0, 100), 7);
  const auto read = [&](const char* text) {
    setenv(kKnob, text, 1);
    return EnvInt(kKnob, 7, 0, 100);
  };
  EXPECT_EQ(read("42"), 42);
  EXPECT_EQ(read("0"), 0);
  EXPECT_EQ(read("100"), 100);
  for (const char* bad : {"", "abc", "12ms", " 5", "5 ", "+5", "-5", "101",
                          "0x10", "99999999999999999999"}) {
    EXPECT_EQ(read(bad), 7) << '"' << bad << '"';
  }
  setenv(kKnob, "-5", 1);
  EXPECT_EQ(EnvInt(kKnob, 7, -10, 10), -5);
  unsetenv(kKnob);
}

TEST(EnvIntTest, MalformedThreadCountFallsBackToHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  for (const char* bad : {"abc", "0", "-3", "4x", "100000"}) {
    setenv("FTMS_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::DefaultThreadCount(), fallback) << bad;
  }
  setenv("FTMS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  unsetenv("FTMS_THREADS");
}

TEST(DiskSetTest, AddRemoveContains) {
  DiskSet set(8);
  EXPECT_TRUE(set.empty());
  set.Add(3);
  set.Add(3);  // idempotent
  set.Add(7);
  EXPECT_EQ(set.count(), 2);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(4));
  set.Remove(3);
  set.Remove(3);  // idempotent
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.count(), 1);
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(7));
}

TEST(DiskSetTest, GrowsBeyondInitialSizeAndIgnoresNegatives) {
  DiskSet set(2);
  EXPECT_FALSE(set.Contains(100));  // beyond size reads as absent
  set.Add(100);
  EXPECT_TRUE(set.Contains(100));
  set.Add(-1);  // no-op
  set.Remove(-1);
  EXPECT_FALSE(set.Contains(-1));
  EXPECT_EQ(set.count(), 1);
}

TEST(DiskSetTest, InitializerListMatchesTestLiterals) {
  const DiskSet empty = {};
  EXPECT_TRUE(empty.empty());
  const DiskSet pair = {1, 2};
  EXPECT_TRUE(pair.Contains(1));
  EXPECT_TRUE(pair.Contains(2));
  EXPECT_FALSE(pair.Contains(0));
  EXPECT_EQ(pair.count(), 2);
}

TEST(ParallelForTest, EveryIndexCoveredExactlyOnce) {
  ThreadPool pool(8);
  // 9 elements over 8 workers: ceil division gives 2-element chunks, so
  // only 5 chunks run — none of them empty.
  std::vector<std::atomic<int>> covered(9);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, 9, [&](int64_t lo, int64_t hi) {
    EXPECT_LT(lo, hi);
    ++calls;
    for (int64_t i = lo; i < hi; ++i) ++covered[static_cast<size_t>(i)];
  });
  for (auto& c : covered) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelForTest, NullPoolAndEmptyRangesRunInline) {
  int calls = 0;
  int64_t seen_lo = -1;
  int64_t seen_hi = -1;
  ParallelFor(nullptr, 2, 40, [&](int64_t lo, int64_t hi) {
    ++calls;
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 2);
  EXPECT_EQ(seen_hi, 40);
  ThreadPool pool(4);
  ParallelFor(nullptr, 7, 7, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(&pool, 7, 7, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range: body never runs
}

TEST(ParallelForTest, ChunksAreContiguous) {
  // Sorted by start, the chunks tile the range with no gap or overlap.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> bounds;
  ParallelFor(&pool, 10, 110, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    bounds.emplace_back(lo, hi);
  });
  std::sort(bounds.begin(), bounds.end());
  EXPECT_EQ(bounds.size(), 4u);
  int64_t expect_lo = 10;
  for (const auto& [lo, hi] : bounds) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_GT(hi, lo);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 110);
}

}  // namespace
}  // namespace ftms
