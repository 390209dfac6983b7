#include "ml/gbdt.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "metrics/classification.h"
#include "metrics/regression.h"

namespace bhpo {
namespace {

TEST(GbdtConfigTest, Validation) {
  GbdtConfig c;
  c.num_rounds = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = GbdtConfig();
  c.learning_rate = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = GbdtConfig();
  c.learning_rate = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = GbdtConfig();
  c.max_depth = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = GbdtConfig();
  c.subsample = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  // NaN compares false both ways, so a check written as `x <= lo || x > hi`
  // would let it through.
  c = GbdtConfig();
  c.learning_rate = std::nan("");
  EXPECT_FALSE(c.Validate().ok());
  c = GbdtConfig();
  c.subsample = std::nan("");
  EXPECT_FALSE(c.Validate().ok());
  EXPECT_TRUE(GbdtConfig().Validate().ok());
}

TEST(GbdtTest, LearnsNonlinearBinaryBoundary) {
  BlobsSpec spec;
  spec.n = 300;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;  // XOR-like multi-cluster layout.
  spec.cluster_spread = 0.8;
  spec.center_spread = 4.0;
  spec.seed = 1;
  Dataset data = MakeBlobs(spec).value();
  Rng rng(2);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();
  GbdtConfig config;
  config.num_rounds = 40;
  config.seed = 3;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(split.train).ok());
  double acc = Accuracy(split.test.labels(),
                        model.PredictLabels(split.test.features()));
  EXPECT_GT(acc, 0.9);
}

TEST(GbdtTest, MulticlassWorks) {
  BlobsSpec spec;
  spec.n = 300;
  spec.num_classes = 4;
  spec.num_features = 5;
  spec.seed = 4;
  Dataset data = MakeBlobs(spec).value();
  Rng rng(5);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();
  GbdtConfig config;
  config.num_rounds = 30;
  config.seed = 6;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(split.train).ok());
  double acc = Accuracy(split.test.labels(),
                        model.PredictLabels(split.test.features()));
  EXPECT_GT(acc, 0.8);
}

TEST(GbdtTest, RegressionFitsSmoothFunction) {
  RegressionSpec spec;
  spec.n = 400;
  spec.num_features = 5;
  spec.noise = 0.5;
  spec.seed = 7;
  Dataset data = MakeRegression(spec).value();
  Rng rng(8);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();
  GbdtConfig config;
  config.num_rounds = 80;
  config.seed = 9;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(split.train).ok());
  double r2 = R2Score(split.test.targets(),
                      model.PredictValues(split.test.features()));
  EXPECT_GT(r2, 0.7);
}

TEST(GbdtTest, MoreRoundsLowerTrainingLoss) {
  BlobsSpec spec;
  spec.n = 200;
  spec.seed = 10;
  Dataset data = MakeBlobs(spec).value();
  GbdtConfig few;
  few.num_rounds = 3;
  few.seed = 11;
  GbdtConfig many = few;
  many.num_rounds = 40;
  GbdtModel a(few), b(many);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_LT(b.final_loss(), a.final_loss());
}

TEST(GbdtTest, ProbabilitiesAreValid) {
  BlobsSpec spec;
  spec.n = 120;
  spec.num_classes = 3;
  spec.seed = 12;
  Dataset data = MakeBlobs(spec).value();
  GbdtConfig config;
  config.num_rounds = 10;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  Matrix proba = model.PredictProba(data.features());
  for (size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) {
      EXPECT_GE(proba(r, c), 0.0);
      total += proba(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(GbdtTest, SubsamplingStillLearns) {
  BlobsSpec spec;
  spec.n = 300;
  spec.seed = 13;
  Dataset data = MakeBlobs(spec).value();
  GbdtConfig config;
  config.num_rounds = 40;
  config.subsample = 0.5;
  config.seed = 14;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  double acc = Accuracy(data.labels(), model.PredictLabels(data.features()));
  EXPECT_GT(acc, 0.85);
}

TEST(GbdtTest, DeterministicForFixedSeed) {
  BlobsSpec spec;
  spec.n = 100;
  spec.seed = 15;
  Dataset data = MakeBlobs(spec).value();
  GbdtConfig config;
  config.num_rounds = 10;
  config.subsample = 0.7;
  config.seed = 16;
  GbdtModel a(config), b(config);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_EQ(a.PredictLabels(data.features()), b.PredictLabels(data.features()));
}

TEST(GbdtTest, RegressionBaseScoreIsTargetMean) {
  // Zero rounds is invalid, but with depth-1 trees and tiny learning rate
  // the prediction stays near the target mean.
  Matrix x(10, 1);
  for (int i = 0; i < 10; ++i) x(i, 0) = i;
  std::vector<double> y(10, 4.2);  // Constant targets.
  Dataset data = Dataset::Regression(std::move(x), std::move(y)).value();
  GbdtConfig config;
  config.num_rounds = 5;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  for (double v : model.PredictValues(data.features())) {
    EXPECT_NEAR(v, 4.2, 1e-9);
  }
}

TEST(GbdtDeathTest, PredictBeforeFitAborts) {
  GbdtModel model;
  Matrix x(1, 2);
  EXPECT_DEATH(model.PredictLabels(x), "before Fit");
}

}  // namespace
}  // namespace bhpo
