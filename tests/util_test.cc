// Tests for the util substrate: Status/StatusOr, deterministic RNG, string
// helpers and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cspm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad n");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad n");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> so(42);
  ASSERT_TRUE(so.ok());
  EXPECT_EQ(so.value(), 42);
  EXPECT_EQ(*so, 42);
  EXPECT_TRUE(so.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> so(Status::NotFound("nothing"));
  EXPECT_FALSE(so.ok());
  EXPECT_EQ(so.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> so(std::string("payload"));
  std::string s = std::move(so).value();
  EXPECT_EQ(s, "payload");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 600);  // ~6 sigma
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(23);
  for (double mean : {0.5, 3.0, 50.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.05) << "mean " << mean;
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(29);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(50, 1.2)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10 * counts[40] - 50);
}

TEST(RngTest, ZipfInRange) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Zipf(7, 1.5), 7u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Zipf(1, 1.5), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(37);
  auto s = rng.SampleWithoutReplacement(100, 30);
  std::set<uint32_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (uint32_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(41);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<uint32_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(StringUtilTest, SplitBasic) {
  auto parts = SplitString("a b  c", ' ');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitEmptyAndNoDelimiter) {
  EXPECT_TRUE(SplitString("", ' ').empty());
  auto one = SplitString("abc", ' ');
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "abc");
}

TEST(StringUtilTest, JoinRoundtrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,y,z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, FormatNumbers) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, ParseUint32Strict) {
  uint32_t v = 123;
  EXPECT_TRUE(ParseUint32("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint32("4294967295", &v));
  EXPECT_EQ(v, 4294967295u);
  // Garbage never silently parses (and never touches the output).
  v = 77;
  EXPECT_FALSE(ParseUint32("", &v));
  EXPECT_FALSE(ParseUint32("x", &v));
  EXPECT_FALSE(ParseUint32("4x", &v));
  EXPECT_FALSE(ParseUint32(" 4", &v));
  EXPECT_FALSE(ParseUint32("-1", &v));
  EXPECT_FALSE(ParseUint32("4294967296", &v));  // one past uint32 max
  EXPECT_EQ(v, 77u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  (void)sink;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  const double first = t.ElapsedMillis();
  const double second = t.ElapsedMillis();
  EXPECT_LE(first, second);  // monotone
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << i;
  }
  // Reusable across calls, including empty ones.
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  std::atomic<size_t> count{0};
  pool.ParallelFor(17, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 17u);
}

}  // namespace
}  // namespace cspm
