#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "metrics/classification.h"
#include "metrics/regression.h"

namespace bhpo {
namespace {

Dataset XorData() {
  // XOR: not linearly separable, needs a depth-2 tree.
  Matrix x = Matrix::FromRows({{0, 0}, {0, 1}, {1, 0}, {1, 1},
                               {0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1},
                               {0.9, 0.9}});
  return Dataset::Classification(x, {0, 1, 1, 0, 0, 1, 1, 0}).value();
}

TEST(DecisionTreeConfigTest, Validation) {
  DecisionTreeConfig c;
  c.max_depth = -1;
  EXPECT_FALSE(c.Validate().ok());
  c = DecisionTreeConfig();
  c.min_samples_split = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = DecisionTreeConfig();
  c.min_samples_leaf = 0;
  EXPECT_FALSE(c.Validate().ok());
  EXPECT_TRUE(DecisionTreeConfig().Validate().ok());
}

TEST(DecisionTreeTest, LearnsXorPerfectly) {
  Dataset data = XorData();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_EQ(tree.PredictLabels(data.features()), data.labels());
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTreeTest, UnconstrainedTreeMemorizesTrainingSet) {
  BlobsSpec spec;
  spec.n = 150;
  spec.num_features = 4;
  spec.num_classes = 3;
  spec.label_noise = 0.2;  // Even noisy labels get memorized.
  spec.seed = 2;
  Dataset data = MakeBlobs(spec).value();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_DOUBLE_EQ(
      Accuracy(data.labels(), tree.PredictLabels(data.features())), 1.0);
}

TEST(DecisionTreeTest, MaxDepthLimitsTree) {
  BlobsSpec spec;
  spec.n = 200;
  spec.seed = 3;
  Dataset data = MakeBlobs(spec).value();
  DecisionTreeConfig config;
  config.max_depth = 2;
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.node_count(), 7u);  // Complete depth-2 binary tree.
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  BlobsSpec spec;
  spec.n = 100;
  spec.seed = 4;
  Dataset data = MakeBlobs(spec).value();
  DecisionTreeConfig config;
  config.min_samples_leaf = 20;
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(data).ok());
  // With >= 20 samples per leaf and n = 100 there can be at most 5 leaves.
  EXPECT_LE(tree.node_count(), 9u);  // 5 leaves -> <= 9 nodes.
}

TEST(DecisionTreeTest, RegressionFitsStepFunction) {
  Matrix x(40, 1);
  std::vector<double> y(40);
  for (int i = 0; i < 40; ++i) {
    x(i, 0) = i;
    y[i] = i < 20 ? 1.0 : 5.0;
  }
  Dataset data = Dataset::Regression(std::move(x), std::move(y)).value();
  DecisionTreeConfig config;
  config.max_depth = 1;  // A single split suffices.
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(data).ok());
  std::vector<double> pred = tree.PredictValues(data.features());
  EXPECT_NEAR(pred[0], 1.0, 1e-9);
  EXPECT_NEAR(pred[39], 5.0, 1e-9);
  EXPECT_NEAR(R2Score(data.targets(), pred), 1.0, 1e-9);
}

TEST(DecisionTreeTest, ConstantFeaturesGiveSingleLeaf) {
  Matrix x(10, 2, 3.0);  // All rows identical.
  Dataset data =
      Dataset::Classification(x, {0, 1, 0, 1, 0, 1, 0, 1, 0, 1}).value();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_EQ(tree.node_count(), 1u);
  // Majority (tie) prediction is deterministic.
  auto labels = tree.PredictLabels(data.features());
  for (int l : labels) EXPECT_EQ(l, labels[0]);
}

TEST(DecisionTreeTest, PredictProbaReflectsLeafFrequencies) {
  Matrix x = Matrix::FromRows({{0}, {0.1}, {0.2}, {5}, {5.1}, {5.2}});
  Dataset data = Dataset::Classification(x, {0, 1, 0, 1, 1, 1}).value();
  DecisionTreeConfig config;
  config.max_depth = 1;
  config.min_samples_leaf = 3;  // Forces the split at the 0.2 | 5 gap.
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(data).ok());
  Matrix proba = tree.PredictProba(data.features());
  // Left leaf holds {0,1,0}: P(class 0) = 2/3.
  EXPECT_NEAR(proba(0, 0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(proba(3, 1), 1.0, 1e-9);
}

TEST(DecisionTreeTest, FitRejectsEmptyDataset) {
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit(Dataset()).ok());
}

TEST(DecisionTreeTest, FitRowsRejectsTwoTo26Ids) {
  // The Gini scan keeps squared counts exact only below 2^26 rows. The
  // ids (a 256 MiB vector) repeat one row; the check comes before any
  // training.
  Dataset data = XorData();
  DatasetView view(data);
  SortedColumns index = SortedColumns::Build(view).value();
  std::vector<uint32_t> ids(DecisionTree::kMaxFitRows, 0);
  TreeWorkspace workspace;
  DecisionTree tree;
  Status status =
      tree.FitRows(view, index, ids, TreeTargets::Of(view), &workspace);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(tree.fitted());
}

TEST(DecisionTreeDeathTest, PredictBeforeFitAborts) {
  DecisionTree tree;
  Matrix x(1, 2);
  EXPECT_DEATH(tree.PredictLabels(x), "before Fit");
}

}  // namespace
}  // namespace bhpo
