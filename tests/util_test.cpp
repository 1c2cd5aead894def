// Unit tests for the util substrate: RNG, thread pool, statistics,
// histograms, tables and string helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace u = prionn::util;

// ---------------------------------------------------------------- RNG ---

TEST(Rng, DeterministicForSeed) {
  u::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMixExpandsState) {
  std::uint64_t s = 0;
  const auto v1 = u::splitmix64(s);
  const auto v2 = u::splitmix64(s);
  EXPECT_NE(v1, v2);
}

TEST(Rng, UniformInUnitInterval) {
  u::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  u::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

class RngIntRange
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(RngIntRange, BoundsRespectedAndCovered) {
  const auto [lo, hi] = GetParam();
  u::Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    seen.insert(v);
  }
  // Narrow ranges must be fully covered.
  if (hi - lo < 16) {
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(hi - lo + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngIntRange,
                         ::testing::Values(std::pair{0L, 0L},
                                           std::pair{0L, 1L},
                                           std::pair{-5L, 5L},
                                           std::pair{0L, 9L},
                                           std::pair{-100L, 100L},
                                           std::pair{0L, 1000000L}));

TEST(Rng, NormalMoments) {
  u::Rng rng(3);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(u::mean(xs), 0.0, 0.05);
  EXPECT_NEAR(u::stddev(xs), 1.0, 0.05);
}

TEST(Rng, NormalShiftScale) {
  u::Rng rng(3);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(u::mean(xs), 10.0, 0.1);
  EXPECT_NEAR(u::stddev(xs), 2.0, 0.1);
}

TEST(Rng, LognormalIsPositive) {
  u::Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ExponentialMean) {
  u::Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.exponential(0.5);
  EXPECT_NEAR(u::mean(xs), 2.0, 0.1);
}

class RngPoisson : public ::testing::TestWithParam<double> {};

TEST_P(RngPoisson, MeanMatches) {
  const double lambda = GetParam();
  u::Rng rng(13);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(lambda));
  EXPECT_NEAR(total / n, lambda, std::max(0.05, lambda * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RngPoisson,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 100.0));

TEST(Rng, PoissonZeroMean) {
  u::Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-3.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  u::Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  u::Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, CategoricalRespectsWeights) {
  u::Rng rng(23);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, ChildStreamsDecorrelated) {
  u::Rng parent(31);
  auto c1 = parent.child(1);
  auto c2 = parent.child(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1() == c2()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Zipf, FirstRankMostPopular) {
  u::Rng rng(37);
  u::ZipfSampler zipf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
}

TEST(Zipf, AllIndicesValid) {
  u::Rng rng(41);
  u::ZipfSampler zipf(5, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf(rng), 5u);
}

// ---------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  u::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  u::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksPartitionRange) {
  u::ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(0, 97, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 97u);
}

TEST(ThreadPool, ExceptionPropagates) {
  u::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  u::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(0, 50, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  u::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t total = 0;
  pool.parallel_for(0, 10, [&](std::size_t i) { total += i; });
  EXPECT_EQ(total, 45u);
}

// A loop submitted from inside a body runs to completion: its submitter
// claims whatever no idle worker took.
TEST(ThreadPool, NestedLoopsFromWorkerBodies) {
  u::ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 37;
  for (int round = 0; round < 200; ++round) {
    std::vector<int> visits(kOuter * kInner, 0);
    pool.parallel_for(0, kOuter, [&](std::size_t o) {
      pool.parallel_for(0, kInner,
                        [&](std::size_t i) { ++visits[o * kInner + i]; });
    });
    for (std::size_t i = 0; i < visits.size(); ++i)
      ASSERT_EQ(visits[i], 1) << "index " << i << " round " << round;
  }
}

TEST(ThreadPool, ConcurrentSubmittersEachGetExactCoverage) {
  u::ThreadPool pool(4);
  constexpr std::size_t kItems = 97;
  constexpr int kRounds = 50;
  std::vector<std::vector<int>> visits(3, std::vector<int>(kItems, 0));
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 3; ++t)
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(0, kItems, [&](std::size_t i) { ++visits[t][i]; });
    });
  for (auto& s : submitters) s.join();
  for (std::size_t t = 0; t < 3; ++t)
    for (std::size_t i = 0; i < kItems; ++i)
      EXPECT_EQ(visits[t][i], kRounds) << "submitter " << t << " index " << i;
}

// Every chunk, on whichever thread claims it, runs at its loop's lane
// width, so a nested loop splits the same way wherever its body runs.
TEST(ThreadPool, ChunksRunAtTheirLoopsLaneWidth) {
  u::ThreadPool pool(4);
  const u::ThreadPool::LaneWidth lanes(2);
  std::vector<std::size_t> seen(8, 0);
  pool.parallel_for(0, seen.size(),
                    [&](std::size_t i) { seen[i] = pool.lanes(); });
  for (const std::size_t width : seen) EXPECT_EQ(width, 2u);
  EXPECT_EQ(pool.lanes(), 2u);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int> n{0};
  u::parallel_for(0, 100, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

// --------------------------------------------------------------- Stats ---

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(u::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(u::variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(u::stddev(xs), std::sqrt(1.25));
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_EQ(u::mean(xs), 0.0);
  EXPECT_EQ(u::variance(xs), 0.0);
  EXPECT_EQ(u::median(xs), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(u::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(u::quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(u::quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(u::quantile(xs, 0.25), 2.5);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(u::median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(u::median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3, -1, 7};
  EXPECT_DOUBLE_EQ(u::min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(u::max_of(xs), 7.0);
}

TEST(Stats, MeanAbsoluteError) {
  const std::vector<double> t = {1, 2, 3}, p = {2, 2, 1};
  EXPECT_DOUBLE_EQ(u::mean_absolute_error(t, p), 1.0);
}

TEST(Stats, BoxplotSummaryFiveNumbers) {
  std::vector<double> xs(101);
  std::iota(xs.begin(), xs.end(), 0.0);
  const auto s = u::boxplot_summary(xs);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_DOUBLE_EQ(s.q1, 25.0);
  EXPECT_DOUBLE_EQ(s.q3, 75.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.0);
  EXPECT_EQ(s.count, 101u);
  EXPECT_GE(s.whisker_low, 0.0);
  EXPECT_LE(s.whisker_high, 100.0);
}

TEST(Stats, FormatBoxplotMentionsFields) {
  const auto s = u::boxplot_summary(std::vector<double>{1, 2, 3});
  const auto text = u::format_boxplot(s);
  EXPECT_NE(text.find("mean="), std::string::npos);
  EXPECT_NE(text.find("med="), std::string::npos);
}

// Relative accuracy: the paper's Eq. (1).
TEST(RelativeAccuracy, PerfectPrediction) {
  EXPECT_DOUBLE_EQ(u::relative_accuracy(10.0, 10.0), 1.0);
}

TEST(RelativeAccuracy, BothZero) {
  // Machine epsilon prevents 0/0; accuracy is 1 by construction.
  EXPECT_DOUBLE_EQ(u::relative_accuracy(0.0, 0.0), 1.0);
}

TEST(RelativeAccuracy, UnderpredictionPenalisedMore) {
  // Predicting 5 for a true 10 divides by 10; predicting 15 divides by 15.
  const double under = u::relative_accuracy(10.0, 5.0);
  const double over = u::relative_accuracy(10.0, 15.0);
  EXPECT_LT(under, over);
}

class RelativeAccuracyRange
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(RelativeAccuracyRange, StaysInUnitInterval) {
  const auto [truth, pred] = GetParam();
  const double a = u::relative_accuracy(truth, pred);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, RelativeAccuracyRange,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{0.0, 100.0},
                      std::pair{100.0, 0.0}, std::pair{1.0, 1e9},
                      std::pair{1e9, 1.0}, std::pair{960.0, 960.0},
                      std::pair{44.0, 45.0}));

TEST(RelativeAccuracy, VectorVersionMatchesScalar) {
  const std::vector<double> t = {1, 2, 3}, p = {1, 4, 3};
  const auto accs = u::relative_accuracies(t, p);
  ASSERT_EQ(accs.size(), 3u);
  EXPECT_DOUBLE_EQ(accs[0], u::relative_accuracy(1, 1));
  EXPECT_DOUBLE_EQ(accs[1], u::relative_accuracy(2, 4));
}

// ----------------------------------------------------------- Histogram ---

TEST(Histogram, LinearBinning) {
  auto h = u::Histogram::linear(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  auto h = u::Histogram::linear(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, NonFiniteInputsRouteToEdgeBinsWithoutUB) {
  // Regression: NaN used to fall through bin_of's range guards into an
  // out-of-range double->size_t cast (undefined behaviour under UBSan).
  auto h = u::Histogram::linear(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 2u);  // NaN and -inf
  EXPECT_EQ(h.count(9), 1u);  // +inf clamps to the top bucket
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
}

TEST(Histogram, LogarithmicBinning) {
  auto h = u::Histogram::logarithmic(1.0, 1e6, 6);
  h.add(5.0);       // decade 0
  h.add(5e3);       // decade 3
  h.add(5e5);       // decade 5
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(5), 1u);
}

TEST(Histogram, BinEdgesConsistent) {
  auto h = u::Histogram::logarithmic(1.0, 1e4, 4);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_LT(h.bin_low(b), h.bin_center(b));
    EXPECT_LT(h.bin_center(b), h.bin_high(b));
  }
  EXPECT_NEAR(h.bin_high(3), 1e4, 1e-6);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(u::Histogram::linear(5.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(u::Histogram::linear(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(u::Histogram::logarithmic(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(u::Histogram::logarithmic(-1.0, 1.0, 4),
               std::invalid_argument);
}

TEST(Histogram, MergeFoldsCountsAndChecksConfiguration) {
  auto a = u::Histogram::linear(0.0, 10.0, 10);
  auto b = u::Histogram::linear(0.0, 10.0, 10);
  a.add(1.5);
  b.add(1.5);
  b.add(-5.0);   // underflow
  b.add(100.0);  // overflow
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  auto linear_other_range = u::Histogram::linear(0.0, 20.0, 10);
  EXPECT_THROW(a.merge(linear_other_range), std::invalid_argument);
  auto log_same_range = u::Histogram::logarithmic(1.0, 10.0, 10);
  auto lin_same_range = u::Histogram::linear(1.0, 10.0, 10);
  EXPECT_THROW(lin_same_range.merge(log_same_range), std::invalid_argument);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  auto h = u::Histogram::linear(0.0, 10.0, 10);
  h.add(0.5);
  h.add(2.5);
  h.add(4.5);
  h.add(6.5);
  // target = 0.5 * 4 = 2 samples: the upper edge of the second occupied
  // bucket, [2, 3).
  EXPECT_NEAR(h.quantile(0.5), 3.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 7.0, 1e-9);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

TEST(Histogram, QuantileOfEmptyIsNaN) {
  const auto h = u::Histogram::linear(0.0, 1.0, 4);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, QuantileSingleBucket) {
  auto h = u::Histogram::linear(0.0, 8.0, 1);
  h.add(3.0);
  h.add(5.0);
  // All mass in one [0, 8) bucket: quantiles interpolate linearly over it.
  EXPECT_NEAR(h.quantile(0.5), 4.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 8.0, 1e-9);
  // p outside [0, 1] clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, RenderContainsCounts) {
  auto h = u::Histogram::linear(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.25);
  const auto text = h.render(10);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('2'), std::string::npos);
}

// --------------------------------------------------------------- Table ---

TEST(Table, AlignsColumns) {
  u::Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  const auto text = t.to_string();
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("| name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  u::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  u::Table t({"x"});
  t.add_row({"hello, world"});
  t.add_row({"with \"quotes\""});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, world\""), std::string::npos);
  EXPECT_NE(csv.find("\"with \"\"quotes\"\"\""), std::string::npos);
}

TEST(Table, AddRowValuesFormats) {
  u::Table t({"a", "b"});
  t.add_row_values({1.23456, 2.0}, 2);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(u::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(u::fmt(2.0, 1), "2.0");
}

// --------------------------------------------------------- StringUtil ---

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = u::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, SplitLinesHandlesCrLfAndTrailingNewline) {
  const auto lines = u::split_lines("one\r\ntwo\nthree\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[2], "three");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(u::trim("  hi \t\n"), "hi");
  EXPECT_EQ(u::trim(""), "");
  EXPECT_EQ(u::trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(u::starts_with("#SBATCH --time", "#SBATCH"));
  EXPECT_FALSE(u::starts_with("#SB", "#SBATCH"));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(u::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(u::join({}, ","), "");
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(u::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(u::replace_all("abc", "x", "y"), "abc");
  EXPECT_EQ(u::replace_all("abc", "", "y"), "abc");
}
