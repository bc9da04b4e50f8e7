#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace skp {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(OnlineStats, KnownMeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineStats, MinMaxTracking) {
  OnlineStats s;
  for (double x : {3.0, -1.0, 10.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(OnlineStats, SumMatches) {
  OnlineStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.sum(), 5050.0, 1e-9);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean);
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  OnlineStats small, large;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) small.add(rng.uniform(0, 1));
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform(0, 1));
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(BinnedMeans, RejectsInvertedRange) {
  EXPECT_THROW(BinnedMeans(5, 4), std::invalid_argument);
}

TEST(BinnedMeans, BinsByInteger) {
  BinnedMeans bm(1, 10);
  bm.add(3, 1.0);
  bm.add(3, 3.0);
  bm.add(7, 10.0);
  EXPECT_DOUBLE_EQ(bm.bin(3).mean(), 2.0);
  EXPECT_DOUBLE_EQ(bm.bin(7).mean(), 10.0);
  EXPECT_EQ(bm.bin(5).count(), 0u);
}

TEST(BinnedMeans, OutOfRangeThrows) {
  BinnedMeans bm(1, 10);
  EXPECT_THROW(bm.add(0, 1.0), std::invalid_argument);
  EXPECT_THROW(bm.add(11, 1.0), std::invalid_argument);
  EXPECT_THROW(bm.bin(0), std::invalid_argument);
}

TEST(BinnedMeans, SeriesSkipsEmptyBins) {
  BinnedMeans bm(1, 5);
  bm.add(2, 1.0);
  bm.add(4, 2.0);
  const auto s = bm.series();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].first, 2.0);
  EXPECT_DOUBLE_EQ(s[0].second, 1.0);
  EXPECT_DOUBLE_EQ(s[1].first, 4.0);
  EXPECT_DOUBLE_EQ(s[1].second, 2.0);
}

TEST(BinnedMeans, MergeCombinesBins) {
  BinnedMeans a(1, 5), b(1, 5);
  a.add(2, 1.0);
  b.add(2, 3.0);
  b.add(3, 5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.bin(2).mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.bin(3).mean(), 5.0);
}

TEST(BinnedMeans, MergeRangeMismatchThrows) {
  BinnedMeans a(1, 5), b(1, 6);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QuantileSorted, ExactOnSmallSample) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.0);
}

TEST(QuantileSorted, InterpolatesBetweenPoints) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.3), 3.0);
}

TEST(QuantileSorted, RejectsEmpty) {
  const std::vector<double> v;
  EXPECT_THROW(quantile_sorted(v, 0.5), std::invalid_argument);
}

TEST(Summarize, MatchesHandComputation) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Summarize, EmptyInput) {
  const std::vector<double> v;
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg(y.rbegin(), y.rend());
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, DegenerateSeriesIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, LengthMismatchThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1, 2, 3};
  EXPECT_THROW(pearson(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace skp
