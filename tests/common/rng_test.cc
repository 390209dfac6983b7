#include "common/rng.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000000) != b.UniformInt(0, 1000000)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformRealInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);  // Zero weight never drawn.
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngDeathTest, CategoricalRejectsAllZeroWeights) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_DEATH(rng.Categorical(weights), "positive total weight");
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(23);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(29);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementIsApproximatelyUniform) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (size_t p : rng.SampleWithoutReplacement(10, 3)) ++counts[p];
  }
  // Each index should appear ~1500 times (5000 * 3 / 10).
  for (int c : counts) EXPECT_NEAR(c, 1500, 200);
}

}  // namespace
}  // namespace bhpo
