// Model-construction lock. A configuration reaches a fitted model along two
// paths: EvaluateFinalConfig builds one model at options.seed, fits it on
// the training set and scores it on both sides; MakeFoldModelFactory builds
// fold f's model at MixSeed(options.seed, f) for cross-validation. Each case
// pins the exact bits of what those models produce by a recorded FNV-1a
// digest: the train and test metrics of the final model, and the
// predictions of the fold models for folds 0-4 after fitting each one on
// the same training set. A change to the seed rule, the translation of a
// hyperparameter or the fit of any model family moves a digest. ctest also
// runs the suite with BHPO_SIMD=off.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "hpo/model_factory.h"
#include "hpo/optimizer.h"
#include "tests/ml/tree_digest.h"

namespace bhpo {
namespace {

constexpr size_t kFolds = 5;

// 0 classes = regression.
TrainTestSplit MakeData(int num_classes) {
  Dataset data;
  if (num_classes > 0) {
    BlobsSpec spec;
    spec.n = 160;
    spec.num_features = 6;
    spec.num_classes = num_classes;
    // Overlapping classes, so no model scores a perfect accuracy.
    spec.cluster_spread = 2.5;
    spec.center_spread = 1.5;
    spec.label_noise = 0.2;
    spec.seed = 17;
    data = MakeBlobs(spec).value().Standardized();
  } else {
    RegressionSpec spec;
    spec.n = 160;
    spec.num_features = 6;
    spec.seed = 19;
    data = MakeRegression(spec).value().Standardized();
  }
  Rng rng(23);
  return SplitTrainTest(data, 0.25, &rng).value();
}

Configuration MlpConfiguration() {
  Configuration config;
  config.Set("hidden_layer_sizes", "(8,)");
  config.Set("activation", "tanh");
  config.Set("solver", "adam");
  config.Set("learning_rate_init", "0.01");
  config.Set("batch_size", "32");
  return config;
}

Configuration ForestConfiguration() {
  Configuration config;
  config.Set("model", "random_forest");
  config.Set("num_trees", "6");
  config.Set("max_depth", "4");
  config.Set("max_features", "3");
  return config;
}

Configuration GbdtConfiguration() {
  Configuration config;
  config.Set("model", "gbdt");
  config.Set("num_rounds", "8");
  config.Set("max_depth", "2");
  config.Set("learning_rate_init", "0.2");
  config.Set("subsample", "0.7");
  return config;
}

FactoryOptions Options() {
  FactoryOptions options;
  options.max_iter = 15;
  options.seed = 31;
  return options;
}

uint64_t FinalDigest(const Configuration& config, const TrainTestSplit& data) {
  FinalEvaluation eval = EvaluateFinalConfig(config, data.train, data.test,
                                             EvalMetric::kAuto, Options())
                             .value();
  Fnv1a h;
  h.Double(eval.train_metric);
  h.Double(eval.test_metric);
  return h.value();
}

// Class probabilities or values of `model` on `test`, through its concrete
// type.
void HashModel(const Model& model, const Dataset& test, Fnv1a* h) {
  if (const auto* mlp = dynamic_cast<const MlpModel*>(&model)) {
    HashPredictions(*mlp, test, h);
  } else if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    HashPredictions(*forest, test, h);
  } else {
    HashPredictions(dynamic_cast<const GbdtModel&>(model), test, h);
  }
}

// Predictions of fold f's model for f = 0..4, each fitted on the training
// side and predicting the test side.
uint64_t FoldDigest(const Configuration& config, const TrainTestSplit& data) {
  FoldModelFactory factory = MakeFoldModelFactory(config, Options()).value();
  Fnv1a h;
  for (size_t f = 0; f < kFolds; ++f) {
    std::unique_ptr<Model> model = factory(f);
    EXPECT_TRUE(model->Fit(data.train).ok());
    HashModel(*model, data.test, &h);
  }
  return h.value();
}

TEST(ModelConstructionLock, FinalMlpClassification) {
  EXPECT_EQ(Hex(FinalDigest(MlpConfiguration(), MakeData(3))),
            "0x5c1dce84e12cf553ULL");
}

TEST(ModelConstructionLock, FinalForestRegression) {
  EXPECT_EQ(Hex(FinalDigest(ForestConfiguration(), MakeData(0))),
            "0x2ec2ee669ab230e5ULL");
}

TEST(ModelConstructionLock, FinalGbdtClassification) {
  EXPECT_EQ(Hex(FinalDigest(GbdtConfiguration(), MakeData(3))),
            "0xd999ccaeee756337ULL");
}

TEST(ModelConstructionLock, FinalGbdtRegression) {
  EXPECT_EQ(Hex(FinalDigest(GbdtConfiguration(), MakeData(0))),
            "0x0be6b8d6ce607263ULL");
}

TEST(ModelConstructionLock, FoldMlpRegression) {
  EXPECT_EQ(Hex(FoldDigest(MlpConfiguration(), MakeData(0))),
            "0xcb7ecd9a44d7f070ULL");
}

TEST(ModelConstructionLock, FoldForestClassification) {
  EXPECT_EQ(Hex(FoldDigest(ForestConfiguration(), MakeData(3))),
            "0x5b4cc5c8b55ab47dULL");
}

TEST(ModelConstructionLock, FoldGbdtClassification) {
  EXPECT_EQ(Hex(FoldDigest(GbdtConfiguration(), MakeData(3))),
            "0x6398c529ffb8da95ULL");
}

}  // namespace
}  // namespace bhpo
