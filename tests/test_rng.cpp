#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace msim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(42);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(42);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.08);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.015);
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Rng rng(29);
  for (double p : {0.2, 0.5, 0.8}) {
    double sum = 0.0;
    constexpr int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i) {
      sum += static_cast<double>(rng.next_geometric(p));
    }
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / kSamples, expected, expected * 0.08 + 0.02) << "p=" << p;
  }
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_geometric(1.0), 0u);
}

TEST(Rng, NextIndexFollowsCumulativeWeights) {
  Rng rng(37);
  const std::array<double, 3> cum{1.0, 1.5, 2.0};  // weights 1.0, 0.5, 0.5
  std::array<int, 3> counts{};
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_index({cum.data(), cum.size()})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.50, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kSamples), 0.25, 0.02);
}

// A failed check throws CheckError, which a caller (a served job, a sweep
// cell) can catch; it must not end the process through std::terminate.
TEST(Rng, FailedChecksThrowCheckError) {
  EXPECT_THROW((void)Rng(1).next_below(0), CheckError);
  EXPECT_THROW((void)Rng(1).next_geometric(0.0), CheckError);
  EXPECT_THROW((void)Rng(1).next_index({}), CheckError);
}

TEST(CumulativeFromWeights, BuildsRunningSum) {
  const std::array<double, 3> w{2.0, 1.0, 1.0};
  const auto cum = cumulative_from_weights({w.data(), w.size()});
  EXPECT_DOUBLE_EQ(cum[0], 2.0);
  EXPECT_DOUBLE_EQ(cum[1], 3.0);
  EXPECT_DOUBLE_EQ(cum[2], 4.0);
  // Padding keeps the tail flat.
  EXPECT_DOUBLE_EQ(cum[7], 4.0);
}

}  // namespace
}  // namespace msim
