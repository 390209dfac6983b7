#include "cv/folds.h"

#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "cv/kfold.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

Dataset ImbalancedData(size_t n = 200, uint64_t seed = 1) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 3;
  spec.num_classes = 2;
  spec.class_weights = {0.75, 0.25};
  spec.seed = seed;
  return MakeBlobs(spec).value();
}

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

TEST(FoldSetTest, ValidateAcceptsDisjointFolds) {
  FoldSet fs;
  fs.folds = {{0, 1}, {2, 3}, {4}};
  EXPECT_TRUE(fs.Validate(5).ok());
  EXPECT_EQ(fs.TotalSize(), 5u);
}

TEST(FoldSetTest, ValidateRejectsDuplicates) {
  FoldSet fs;
  fs.folds = {{0, 1}, {1, 2}};
  EXPECT_FALSE(fs.Validate(5).ok());
}

TEST(FoldSetTest, ValidateRejectsOutOfRange) {
  FoldSet fs;
  fs.folds = {{0, 7}};
  EXPECT_FALSE(fs.Validate(5).ok());
}

TEST(FoldSetTest, ComplementOfCoversEverythingElse) {
  FoldSet fs;
  fs.folds = {{0, 1}, {2, 3}, {4}};
  std::vector<size_t> comp = fs.ComplementOf(1);
  std::set<size_t> expected = {0, 1, 4};
  EXPECT_EQ(std::set<size_t>(comp.begin(), comp.end()), expected);
}

// Both builders must produce a partition of the subset. Parameterized over
// k and subset size.
//
// gtest names a parameter that has no printer by dumping its bytes, so
// BuilderCase must have no padding: a bool flag would leave seven
// uninitialized bytes in the dump, and the case names would change from
// build to build. The flag is therefore as wide as a size_t.
struct BuilderCase {
  size_t stratified;  // 0 or 1.
  size_t k;
  size_t subset_size;
};

class FoldBuilderTest : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(FoldBuilderTest, FoldsPartitionTheSubset) {
  BuilderCase param = GetParam();
  Dataset data = ImbalancedData(300);
  Rng rng(7);
  std::vector<size_t> subset = AllIndices(param.subset_size);

  std::unique_ptr<FoldBuilder> builder;
  if (param.stratified) {
    builder = std::make_unique<StratifiedKFold>();
  } else {
    builder = std::make_unique<RandomKFold>();
  }
  FoldSet fs = builder->Build(data, subset, param.k, &rng).value();

  ASSERT_EQ(fs.num_folds(), param.k);
  EXPECT_TRUE(fs.Validate(data.n()).ok());
  EXPECT_EQ(fs.TotalSize(), subset.size());
  // Sizes near-equal: max - min <= 1 for random; <= k for stratified deal.
  size_t lo = subset.size(), hi = 0;
  for (const auto& f : fs.folds) {
    lo = std::min(lo, f.size());
    hi = std::max(hi, f.size());
  }
  EXPECT_LE(hi - lo, param.stratified ? param.k : 1);
  EXPECT_GE(lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FoldBuilderTest,
    ::testing::Values(BuilderCase{false, 5, 100}, BuilderCase{false, 5, 23},
                      BuilderCase{false, 2, 10}, BuilderCase{true, 5, 100},
                      BuilderCase{true, 5, 23}, BuilderCase{true, 3, 31},
                      BuilderCase{true, 2, 10}),
    [](const auto& info) {
      return std::string(info.param.stratified ? "strat" : "rand") + "_k" +
             std::to_string(info.param.k) + "_n" +
             std::to_string(info.param.subset_size);
    });

TEST(StratifiedKFoldTest, PreservesClassRatiosPerFold) {
  Dataset data = ImbalancedData(400, 2);
  Rng rng(3);
  StratifiedKFold builder;
  FoldSet fs = builder.Build(data, AllIndices(400), 5, &rng).value();
  for (const auto& fold : fs.folds) {
    size_t positives = 0;
    for (size_t i : fold) positives += data.label(i) == 1;
    double ratio = static_cast<double>(positives) / fold.size();
    EXPECT_NEAR(ratio, 0.25, 0.05);
  }
}

TEST(StratifiedKFoldTest, RegressionStratifiesByTargetBins) {
  RegressionSpec spec;
  spec.n = 200;
  spec.seed = 4;
  Dataset data = MakeRegression(spec).value();
  Rng rng(5);
  StratifiedKFold builder(4);
  FoldSet fs = builder.Build(data, AllIndices(200), 5, &rng).value();
  EXPECT_TRUE(fs.Validate(200).ok());
  EXPECT_EQ(fs.TotalSize(), 200u);
  // Each fold's mean target should be near the global mean (quantile
  // stratification balances magnitudes).
  double global = 0.0;
  for (double t : data.targets()) global += t;
  global /= data.n();
  for (const auto& fold : fs.folds) {
    double mean = 0.0;
    for (size_t i : fold) mean += data.target(i);
    mean /= fold.size();
    EXPECT_NEAR(mean, global, 1.5);
  }
}

TEST(StratumLabelsTest, ClassificationPassesThroughLabels) {
  Dataset data = ImbalancedData(50, 6);
  EXPECT_EQ(StratumLabels(data, 4), data.labels());
}

TEST(StratumLabelsTest, RegressionBinsAreBalancedAndOrdered) {
  Matrix x(8, 1);
  Dataset data =
      Dataset::Regression(x, {10, 20, 30, 40, 50, 60, 70, 80}).value();
  std::vector<int> bins = StratumLabels(data, 4);
  EXPECT_EQ(bins, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(FoldBuildersRejectBadArguments, Errors) {
  Dataset data = ImbalancedData(20, 7);
  Rng rng(8);
  RandomKFold rk;
  StratifiedKFold sk;
  EXPECT_FALSE(rk.Build(data, AllIndices(20), 1, &rng).ok());
  EXPECT_FALSE(sk.Build(data, AllIndices(20), 1, &rng).ok());
  EXPECT_FALSE(rk.Build(data, {0, 1}, 5, &rng).ok());     // subset < k
  EXPECT_FALSE(rk.Build(data, AllIndices(20), 5, nullptr).ok());
  EXPECT_FALSE(sk.Build(data, {0, 99}, 2, &rng).ok());    // out of range
}

}  // namespace
}  // namespace bhpo
