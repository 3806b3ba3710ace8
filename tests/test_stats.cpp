#include "common/stats.hpp"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace msim {
namespace {

TEST(StreamingStat, EmptyIsZero) {
  StreamingStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(StreamingStat, SingleValue) {
  StreamingStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 5.0);
}

TEST(StreamingStat, MatchesDirectComputation) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  StreamingStat s;
  for (double x : xs) s.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(4, 10.0);  // [0,10) [10,20) [20,30) [30,inf)
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  h.add(1000.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(2, 1.0);
  h.add(0.5, 7);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.bucket(0), 7u);
}

TEST(Histogram, ApproximateMeanUsesMidpoints) {
  Histogram h(10, 2.0);
  h.add(1.0);  // bucket 0, midpoint 1.0
  h.add(3.0);  // bucket 1, midpoint 3.0
  EXPECT_NEAR(h.approximate_mean(), 2.0, 1e-12);
}

TEST(Histogram, ApproximateQuantile) {
  Histogram h(10, 1.0);
  for (int i = 0; i < 9; ++i) h.add(0.5);
  h.add(8.5);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.5), 1.0);   // first bucket edge
  EXPECT_DOUBLE_EQ(h.approximate_quantile(1.0), 9.0);   // up to the outlier
}

TEST(Histogram, EmptyQuantileAndMeanAreZero) {
  Histogram h(4, 1.0);
  EXPECT_DOUBLE_EQ(h.approximate_mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.9), 0.0);
}

TEST(RatioStat, TracksEventsOverOpportunities) {
  RatioStat r;
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
  r.add(true);
  r.add(false);
  r.add(false);
  r.add(true);
  EXPECT_DOUBLE_EQ(r.value(), 0.5);
  r.add_events(2, 4);
  EXPECT_EQ(r.events(), 4u);
  EXPECT_EQ(r.opportunities(), 8u);
  EXPECT_DOUBLE_EQ(r.value(), 0.5);
}

TEST(Means, ArithmeticGeometricHarmonicOrdering) {
  const std::array<double, 3> xs{1.0, 2.0, 4.0};
  const double a = arithmetic_mean({xs.data(), xs.size()});
  const double g = geometric_mean({xs.data(), xs.size()});
  const double h = harmonic_mean({xs.data(), xs.size()});
  EXPECT_NEAR(a, 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(g, 2.0, 1e-12);
  EXPECT_NEAR(h, 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
  EXPECT_GT(a, g);
  EXPECT_GT(g, h);
}

TEST(Means, EqualValuesAllMeansAgree) {
  const std::array<double, 4> xs{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(arithmetic_mean({xs.data(), xs.size()}), 3.0, 1e-12);
  EXPECT_NEAR(geometric_mean({xs.data(), xs.size()}), 3.0, 1e-12);
  EXPECT_NEAR(harmonic_mean({xs.data(), xs.size()}), 3.0, 1e-12);
}

TEST(Means, EmptySpansAreZero) {
  EXPECT_DOUBLE_EQ(arithmetic_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({}), 0.0);
}

TEST(Means, NonPositiveValueThrowsCheckError) {
  const std::array<double, 2> xs{1.0, 0.0};
  EXPECT_THROW((void)geometric_mean({xs.data(), xs.size()}), CheckError);
  EXPECT_THROW((void)harmonic_mean({xs.data(), xs.size()}), CheckError);
}

TEST(Fairness, HmeanWeightedIpcMatchesHandComputation) {
  // Two threads: weighted IPCs 0.5 and 0.25 -> hmean = 2/(2+4) = 1/3.
  const std::array<double, 2> smt{1.0, 0.5};
  const std::array<double, 2> alone{2.0, 2.0};
  EXPECT_NEAR(hmean_weighted_ipc({smt.data(), 2}, {alone.data(), 2}), 1.0 / 3.0, 1e-12);
}

TEST(Fairness, PenalizesImbalance) {
  // Same total weighted throughput, but imbalanced -> lower fairness.
  const std::array<double, 2> balanced{0.5, 0.5};
  const std::array<double, 2> skewed{0.9, 0.1};
  const std::array<double, 2> alone{1.0, 1.0};
  EXPECT_GT(hmean_weighted_ipc({balanced.data(), 2}, {alone.data(), 2}),
            hmean_weighted_ipc({skewed.data(), 2}, {alone.data(), 2}));
}

TEST(Histogram, QuantileEdgesZeroAndOne) {
  Histogram h(8, 2.0);
  h.add(3.0);  // bucket 1
  h.add(5.0);  // bucket 2
  // q=0 resolves to the first bucket's upper edge even when it is empty.
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(1.0), 6.0);
  // Out-of-range q clamps to the nearest valid quantile.
  EXPECT_DOUBLE_EQ(h.approximate_quantile(-0.5), h.approximate_quantile(0.0));
  EXPECT_DOUBLE_EQ(h.approximate_quantile(1.5), h.approximate_quantile(1.0));
}

TEST(Histogram, EmptyQuantileEdgesAreZero) {
  Histogram h(4, 1.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(1.0), 0.0);
}

TEST(Histogram, AllMassInOverflowBucket) {
  Histogram h(4, 1.0);
  h.add(100.0, 7);
  EXPECT_EQ(h.bucket(3), 7u);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.approximate_quantile(1.0), 4.0);
  // The overflow bucket represents values by its lower edge in the mean.
  EXPECT_DOUBLE_EQ(h.approximate_mean(), 3.0);
}

}  // namespace
}  // namespace msim
