#include "ml/mlp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "metrics/classification.h"
#include "metrics/regression.h"

namespace bhpo {
namespace {

Dataset EasyBlobs(size_t n = 200, uint64_t seed = 1) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 1;
  spec.cluster_spread = 0.5;
  spec.center_spread = 4.0;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

MlpConfig SmallConfig(Solver solver) {
  MlpConfig config;
  config.hidden_layer_sizes = {16};
  config.solver = solver;
  config.max_iter = solver == Solver::kLbfgs ? 100 : 60;
  config.learning_rate_init = solver == Solver::kSgd ? 0.05 : 0.01;
  config.seed = 7;
  return config;
}

TEST(MlpConfigTest, ValidateCatchesBadValues) {
  MlpConfig c;
  c.hidden_layer_sizes = {};
  EXPECT_FALSE(c.Validate().ok());
  c = MlpConfig();
  c.hidden_layer_sizes = {0};
  EXPECT_FALSE(c.Validate().ok());
  c = MlpConfig();
  c.learning_rate_init = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = MlpConfig();
  c.momentum = 1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = MlpConfig();
  c.max_iter = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = MlpConfig();
  c.validation_fraction = 1.0;
  EXPECT_FALSE(c.Validate().ok());
  // NaN fails every comparison; each range check must reject it.
  const double nan = std::nan("");
  for (double MlpConfig::*field :
       {&MlpConfig::learning_rate_init, &MlpConfig::alpha,
        &MlpConfig::momentum, &MlpConfig::validation_fraction,
        &MlpConfig::tol}) {
    c = MlpConfig();
    c.*field = nan;
    EXPECT_FALSE(c.Validate().ok());
  }
  EXPECT_TRUE(MlpConfig().Validate().ok());
}

TEST(SolverStringTest, RoundTrip) {
  for (const char* name : {"lbfgs", "sgd", "adam"}) {
    EXPECT_STREQ(SolverToString(SolverFromString(name).value()), name);
  }
  EXPECT_FALSE(SolverFromString("rmsprop").ok());
}

// The analytic gradient must match central finite differences of the loss
// for every parameter — the canonical backprop correctness check, run for
// every activation and both heads.
struct GradCase {
  Activation activation;
  Task task;
};

class GradientCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradientCheckTest, BackpropMatchesFiniteDifferences) {
  GradCase param = GetParam();
  Dataset data;
  if (param.task == Task::kClassification) {
    BlobsSpec spec;
    spec.n = 12;
    spec.num_features = 3;
    spec.num_classes = 3;
    spec.seed = 11;
    data = MakeBlobs(spec).value();
  } else {
    RegressionSpec spec;
    spec.n = 12;
    spec.num_features = 3;
    spec.seed = 11;
    data = MakeRegression(spec).value();
  }

  MlpConfig config;
  config.hidden_layer_sizes = {5, 4};
  config.activation = param.activation;
  config.alpha = 0.01;
  config.max_iter = 1;  // Fit establishes the task/head cheaply...
  config.seed = 13;
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  // ...then re-initialize to a fresh random point and compare gradients
  // there (away from any partially-trained optimum).
  model.InitializeParameters(data.num_features(),
                             param.task == Task::kClassification ? 3 : 1, 17);

  std::vector<Matrix> weight_grads, bias_grads;
  model.ComputeLossAndGradients(data, &weight_grads, &bias_grads);

  const double kEps = 1e-6;
  std::vector<Matrix> dummy_w, dummy_b;
  // Check a sample of weight entries in every layer.
  for (size_t l = 0; l < model.weights().size(); ++l) {
    Matrix& w = (*model.mutable_weights())[l];
    for (size_t idx = 0; idx < w.size(); idx += 1 + w.size() / 7) {
      double original = w.data()[idx];
      w.data()[idx] = original + kEps;
      double plus = model.ComputeLossAndGradients(data, &dummy_w, &dummy_b);
      w.data()[idx] = original - kEps;
      double minus = model.ComputeLossAndGradients(data, &dummy_w, &dummy_b);
      w.data()[idx] = original;
      double fd = (plus - minus) / (2 * kEps);
      EXPECT_NEAR(weight_grads[l].data()[idx], fd, 1e-5)
          << "layer " << l << " weight " << idx;
    }
    Matrix& b = (*model.mutable_biases())[l];
    for (size_t idx = 0; idx < b.size(); idx += 2) {
      double original = b.data()[idx];
      b.data()[idx] = original + kEps;
      double plus = model.ComputeLossAndGradients(data, &dummy_w, &dummy_b);
      b.data()[idx] = original - kEps;
      double minus = model.ComputeLossAndGradients(data, &dummy_w, &dummy_b);
      b.data()[idx] = original;
      double fd = (plus - minus) / (2 * kEps);
      EXPECT_NEAR(bias_grads[l].data()[idx], fd, 1e-5)
          << "layer " << l << " bias " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndHeads, GradientCheckTest,
    ::testing::Values(GradCase{Activation::kLogistic, Task::kClassification},
                      GradCase{Activation::kTanh, Task::kClassification},
                      GradCase{Activation::kRelu, Task::kClassification},
                      GradCase{Activation::kTanh, Task::kRegression},
                      GradCase{Activation::kRelu, Task::kRegression}),
    [](const auto& info) {
      return std::string(ActivationToString(info.param.activation)) +
             (info.param.task == Task::kClassification ? "_cls" : "_reg");
    });

class SolverLearnTest : public ::testing::TestWithParam<Solver> {};

TEST_P(SolverLearnTest, LearnsSeparableBlobs) {
  Dataset data = EasyBlobs(240, GetParam() == Solver::kSgd ? 2 : 3);
  Rng rng(4);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();

  MlpModel model(SmallConfig(GetParam()));
  ASSERT_TRUE(model.Fit(split.train).ok());
  double acc = Accuracy(split.test.labels(),
                        model.PredictLabels(split.test.features()));
  EXPECT_GT(acc, 0.85) << SolverToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverLearnTest,
                         ::testing::Values(Solver::kLbfgs, Solver::kSgd,
                                           Solver::kAdam),
                         [](const auto& info) {
                           return SolverToString(info.param);
                         });

TEST(MlpTest, LearnsMulticlass) {
  BlobsSpec spec;
  spec.n = 300;
  spec.num_features = 5;
  spec.num_classes = 4;
  spec.clusters_per_class = 1;
  spec.cluster_spread = 0.5;
  spec.center_spread = 5.0;
  spec.seed = 5;
  Dataset data = MakeBlobs(spec).value().Standardized();
  Rng rng(6);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();
  MlpModel model(SmallConfig(Solver::kAdam));
  ASSERT_TRUE(model.Fit(split.train).ok());
  double acc = Accuracy(split.test.labels(),
                        model.PredictLabels(split.test.features()));
  EXPECT_GT(acc, 0.8);
}

TEST(MlpTest, RegressionBeatsTheMeanPredictor) {
  RegressionSpec spec;
  spec.n = 300;
  spec.num_features = 6;
  spec.noise = 0.5;
  spec.seed = 7;
  Dataset data = MakeRegression(spec).value().Standardized();
  Rng rng(8);
  TrainTestSplit split = SplitTrainTest(data, 0.25, &rng).value();
  MlpConfig config = SmallConfig(Solver::kLbfgs);
  config.hidden_layer_sizes = {24};
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(split.train).ok());
  double r2 = R2Score(split.test.targets(),
                      model.PredictValues(split.test.features()));
  EXPECT_GT(r2, 0.5);
}

TEST(MlpTest, PredictProbaRowsSumToOne) {
  Dataset data = EasyBlobs(100, 9);
  MlpModel model(SmallConfig(Solver::kAdam));
  ASSERT_TRUE(model.Fit(data).ok());
  Matrix proba = model.PredictProba(data.features());
  for (size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) total += proba(r, c);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MlpTest, DeterministicForFixedSeed) {
  Dataset data = EasyBlobs(120, 10);
  MlpModel a(SmallConfig(Solver::kAdam));
  MlpModel b(SmallConfig(Solver::kAdam));
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_EQ(a.PredictLabels(data.features()), b.PredictLabels(data.features()));
  EXPECT_DOUBLE_EQ(a.final_loss(), b.final_loss());
}

TEST(MlpTest, EarlyStoppingCanStopBeforeMaxIter) {
  Dataset data = EasyBlobs(300, 12);
  MlpConfig config = SmallConfig(Solver::kAdam);
  config.max_iter = 200;
  config.early_stopping = true;
  config.n_iter_no_change = 5;
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(model.iterations_run(), 200);
  // Still a good model.
  double acc = Accuracy(data.labels(), model.PredictLabels(data.features()));
  EXPECT_GT(acc, 0.85);
}

TEST(MlpTest, TrainingLossDecreases) {
  Dataset data = EasyBlobs(150, 13);
  MlpConfig one_epoch = SmallConfig(Solver::kAdam);
  one_epoch.max_iter = 1;
  one_epoch.tol = 0.0;
  MlpConfig many_epochs = one_epoch;
  many_epochs.max_iter = 40;
  MlpModel a(one_epoch), b(many_epochs);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_LT(b.final_loss(), a.final_loss());
}

TEST(MlpTest, TinyDatasetStillFits) {
  // Bandit rungs can hand a model fewer instances than the batch size.
  Dataset data = EasyBlobs(8, 14);
  MlpConfig config = SmallConfig(Solver::kAdam);
  config.batch_size = 32;  // Larger than the dataset.
  MlpModel model(config);
  EXPECT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.PredictLabels(data.features()).size(), 8u);
}

TEST(MlpTest, FitRejectsEmptyDataset) {
  Dataset empty;
  MlpModel model(SmallConfig(Solver::kAdam));
  EXPECT_FALSE(model.Fit(empty).ok());
}

TEST(MlpDeathTest, PredictBeforeFitAborts) {
  MlpModel model(SmallConfig(Solver::kAdam));
  Matrix x(1, 4);
  EXPECT_DEATH(model.PredictLabels(x), "before Fit");
}

TEST(MlpDeathTest, WrongTaskPredictAborts) {
  Dataset data = EasyBlobs(50, 15);
  MlpModel model(SmallConfig(Solver::kAdam));
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_DEATH(model.PredictValues(data.features()), "BHPO_CHECK");
}

TEST(MlpTest, SubsetMissingAClassStillTrains) {
  // Dataset metadata says 3 classes but the subset only contains 2 — the
  // output head must still have 3 units and prediction must not crash.
  BlobsSpec spec;
  spec.n = 90;
  spec.num_classes = 3;
  spec.seed = 16;
  Dataset data = MakeBlobs(spec).value();
  std::vector<size_t> two_class_rows;
  for (size_t i = 0; i < data.n(); ++i) {
    if (data.label(i) != 2) two_class_rows.push_back(i);
  }
  Dataset subset = data.Subset(two_class_rows);
  ASSERT_EQ(subset.num_classes(), 3);
  MlpModel model(SmallConfig(Solver::kAdam));
  ASSERT_TRUE(model.Fit(subset).ok());
  Matrix proba = model.PredictProba(data.features());
  EXPECT_EQ(proba.cols(), 3u);
}

}  // namespace
}  // namespace bhpo
