#include "data/split.h"

#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bhpo {
namespace {

Dataset ImbalancedBlobs(size_t n = 500) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.class_weights = {0.8, 0.2};
  spec.seed = 99;
  return MakeBlobs(spec).value();
}

TEST(ApportionTest, ExactTotalAndProportionality) {
  std::vector<size_t> parts = Apportion(10, {1.0, 1.0, 2.0});
  EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0u), 10u);
  EXPECT_EQ(parts[2], 5u);
}

TEST(ApportionTest, ZeroCount) {
  std::vector<size_t> parts = Apportion(0, {1.0, 2.0});
  EXPECT_EQ(parts, (std::vector<size_t>{0, 0}));
}

TEST(ApportionTest, ZeroWeightGetsNothing) {
  std::vector<size_t> parts = Apportion(7, {0.0, 1.0});
  EXPECT_EQ(parts[0], 0u);
  EXPECT_EQ(parts[1], 7u);
}

TEST(ApportionTest, LargestRemainderRounding) {
  // 5 over weights {1,1,1}: one part gets the extra.
  std::vector<size_t> parts = Apportion(5, {1.0, 1.0, 1.0});
  EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0u), 5u);
  for (size_t p : parts) {
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, 2u);
  }
}

TEST(SampleUniformTest, CountAndRange) {
  Rng rng(1);
  std::vector<size_t> s = SampleUniform(50, 20, &rng);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SampleUniformTest, CountClampedToN) {
  Rng rng(1);
  EXPECT_EQ(SampleUniform(5, 100, &rng).size(), 5u);
}

TEST(SampleStratifiedTest, PreservesClassProportions) {
  Dataset d = ImbalancedBlobs();
  Rng rng(2);
  std::vector<size_t> s = SampleStratified(d, 100, &rng);
  ASSERT_EQ(s.size(), 100u);
  size_t positives = 0;
  for (size_t i : s) positives += d.label(i) == 1;
  // 20% +- rounding.
  EXPECT_NEAR(static_cast<double>(positives), 20.0, 2.0);
}

TEST(SampleStratifiedTest, DistinctIndices) {
  Dataset d = ImbalancedBlobs(200);
  Rng rng(3);
  std::vector<size_t> s = SampleStratified(d, 150, &rng);
  std::set<size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), s.size());
}

TEST(SplitTrainTestTest, EightyTwentySizes) {
  Dataset d = ImbalancedBlobs(500);
  Rng rng(4);
  TrainTestSplit split = SplitTrainTest(d, 0.2, &rng).value();
  EXPECT_EQ(split.test.n(), 100u);
  EXPECT_EQ(split.train.n(), 400u);
}

TEST(SplitTrainTestTest, PartitionCoversEverything) {
  Dataset d = ImbalancedBlobs(300);
  Rng rng(5);
  TrainTestSplit split = SplitTrainTest(d, 0.25, &rng).value();
  EXPECT_EQ(split.train.n() + split.test.n(), d.n());
}

TEST(SplitTrainTestTest, StratifiedKeepsClassBalanceInTest) {
  Dataset d = ImbalancedBlobs(1000);
  Rng rng(6);
  TrainTestSplit split = SplitTrainTest(d, 0.2, &rng, true).value();
  size_t positives = 0;
  for (size_t i = 0; i < split.test.n(); ++i) {
    positives += split.test.label(i) == 1;
  }
  EXPECT_NEAR(static_cast<double>(positives) / split.test.n(), 0.2, 0.02);
}

TEST(SplitTrainTestTest, RejectsBadFraction) {
  Dataset d = ImbalancedBlobs(100);
  Rng rng(7);
  EXPECT_FALSE(SplitTrainTest(d, 0.0, &rng).ok());
  EXPECT_FALSE(SplitTrainTest(d, 1.0, &rng).ok());
  EXPECT_FALSE(SplitTrainTest(d, -0.5, &rng).ok());
  EXPECT_FALSE(SplitTrainTest(d, std::nan(""), &rng).ok());
}

TEST(SplitTrainTestTest, RejectsNullRng) {
  Dataset d = ImbalancedBlobs(100);
  EXPECT_FALSE(SplitTrainTest(d, 0.2, nullptr).ok());
}

TEST(SplitTrainTestTest, WorksForRegression) {
  RegressionSpec spec;
  spec.n = 100;
  spec.seed = 8;
  Dataset d = MakeRegression(spec).value();
  Rng rng(9);
  TrainTestSplit split = SplitTrainTest(d, 0.2, &rng).value();
  EXPECT_EQ(split.test.n(), 20u);
  EXPECT_FALSE(split.train.is_classification());
}

}  // namespace
}  // namespace bhpo
