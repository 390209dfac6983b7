// End-to-end integration: the full paper pipeline on tiny synthetic data —
// grouping, general/special folds, Equation 3 scoring, and every optimizer
// running against the real MLP substrate.

#include <memory>

#include <gtest/gtest.h>

#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/hyperband.h"
#include "hpo/sequential_search.h"
#include "hpo/sha.h"
#include "ml/serialization.h"

namespace bhpo {
namespace {

struct Env {
  TrainTestSplit data;
  ConfigSpace space;
  StrategyOptions options;
};

Env MakeEnv(uint64_t seed = 1) {
  Env env;
  BlobsSpec spec;
  spec.n = 150;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.cluster_spread = 0.8;
  spec.center_spread = 4.0;
  spec.seed = seed;
  Dataset full = MakeBlobs(spec).value().Standardized();
  Rng rng(seed + 1);
  env.data = SplitTrainTest(full, 0.2, &rng).value();

  // A small slice of the Table III space keeps the test fast.
  Status st = env.space.Add("hidden_layer_sizes", {"(6)", "(10)"});
  BHPO_CHECK(st.ok());
  st = env.space.Add("activation", {"relu", "tanh"});
  BHPO_CHECK(st.ok());
  st = env.space.Add("learning_rate_init", {"0.05", "0.01"});
  BHPO_CHECK(st.ok());

  env.options.factory.max_iter = 12;
  env.options.factory.seed = seed + 2;
  return env;
}

std::unique_ptr<EnhancedStrategy> MakeEnhanced(const Env& env) {
  GroupingOptions grouping;
  grouping.seed = 3;
  ScoringOptions scoring;
  scoring.use_variance = true;
  return EnhancedStrategy::Create(env.data.train, grouping, GenFoldsOptions(),
                                  scoring, env.options)
      .value();
}

TEST(EndToEndTest, ShaVanillaCompletesAndGeneralizes) {
  Env env = MakeEnv(10);
  VanillaStrategy strategy(env.options);
  SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy);
  Rng rng(4);
  HpoResult result = sha.Optimize(env.data.train, &rng).value();
  EXPECT_EQ(result.num_evaluations, 8u + 4u + 2u);
  FinalEvaluation final =
      EvaluateFinalConfig(result.best_config, env.data.train, env.data.test,
                          EvalMetric::kAccuracy, env.options.factory)
          .value();
  EXPECT_GT(final.test_metric, 0.6);
}

TEST(EndToEndTest, ShaEnhancedCompletesAndGeneralizes) {
  Env env = MakeEnv(20);
  auto strategy = MakeEnhanced(env);
  SuccessiveHalving sha(env.space.EnumerateGrid(), strategy.get());
  Rng rng(5);
  HpoResult result = sha.Optimize(env.data.train, &rng).value();
  FinalEvaluation final =
      EvaluateFinalConfig(result.best_config, env.data.train, env.data.test,
                          EvalMetric::kAccuracy, env.options.factory)
          .value();
  EXPECT_GT(final.test_metric, 0.6);
}

TEST(EndToEndTest, RandomSearchBaseline) {
  Env env = MakeEnv(30);
  VanillaStrategy strategy(env.options);
  RandomConfigSampler sampler(&env.space);
  SequentialSearch search(&sampler, &strategy, 3);
  Rng rng(6);
  HpoResult result = search.Optimize(env.data.train, &rng).value();
  EXPECT_EQ(result.num_evaluations, 3u);
  // Random search evaluates at full budget only.
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.budget, env.data.train.n());
  }
}

TEST(EndToEndTest, HyperbandWithEnhancedStrategy) {
  Env env = MakeEnv(40);
  auto strategy = MakeEnhanced(env);
  RandomConfigSampler sampler(&env.space);
  HyperbandOptions options;
  options.min_budget = 40;
  Hyperband hb(&sampler, strategy.get(), options);
  Rng rng(7);
  HpoResult result = hb.Optimize(env.data.train, &rng).value();
  EXPECT_GT(result.num_evaluations, 4u);
  EXPECT_TRUE(result.best_config.Has("hidden_layer_sizes"));
}

TEST(EndToEndTest, BohbWithVanillaStrategy) {
  Env env = MakeEnv(50);
  VanillaStrategy strategy(env.options);
  HyperbandOptions options;
  options.min_budget = 40;
  Bohb bohb(&env.space, &strategy, options);
  Rng rng(8);
  HpoResult result = bohb.Optimize(env.data.train, &rng).value();
  EXPECT_TRUE(result.best_config.Has("activation"));
}

TEST(EndToEndTest, AshaWithVanillaStrategy) {
  Env env = MakeEnv(60);
  VanillaStrategy strategy(env.options);
  AshaOptions options;
  options.max_jobs = 12;
  options.min_budget = 30;
  Asha asha(&env.space, &strategy, options);
  Rng rng(9);
  HpoResult result = asha.Optimize(env.data.train, &rng).value();
  EXPECT_EQ(result.num_evaluations, 12u);
}

TEST(EndToEndTest, RegressionPipeline) {
  RegressionSpec spec;
  spec.n = 120;
  spec.num_features = 5;
  spec.seed = 70;
  Dataset full = MakeRegression(spec).value().Standardized();
  Rng split_rng(71);
  TrainTestSplit data = SplitTrainTest(full, 0.2, &split_rng).value();

  ConfigSpace space;
  ASSERT_TRUE(space.Add("hidden_layer_sizes", {"(8)", "(12)"}).ok());
  ASSERT_TRUE(space.Add("solver", {"lbfgs", "adam"}).ok());

  StrategyOptions options;
  options.factory.max_iter = 25;
  options.factory.seed = 72;
  GroupingOptions grouping;
  grouping.seed = 73;
  ScoringOptions scoring;
  scoring.use_variance = true;
  auto strategy = EnhancedStrategy::Create(data.train, grouping,
                                           GenFoldsOptions(), scoring, options)
                      .value();
  SuccessiveHalving sha(space.EnumerateGrid(), strategy.get());
  Rng rng(74);
  HpoResult result = sha.Optimize(data.train, &rng).value();
  FinalEvaluation final =
      EvaluateFinalConfig(result.best_config, data.train, data.test,
                          EvalMetric::kR2, options.factory)
          .value();
  EXPECT_GT(final.test_metric, 0.0);  // Beats the mean predictor.
}

TEST(EndToEndTest, PaperDatasetSmokeRun) {
  // Down-scaled "australian" through SHA+ end to end.
  TrainTestSplit data = MakePaperDataset("australian", 7, 0.3).value();
  ConfigSpace space;
  ASSERT_TRUE(space.Add("hidden_layer_sizes", {"(8)"}).ok());
  ASSERT_TRUE(space.Add("activation", {"relu", "logistic"}).ok());
  StrategyOptions options;
  options.factory.max_iter = 10;
  GroupingOptions grouping;
  grouping.seed = 8;
  ScoringOptions scoring;
  scoring.use_variance = true;
  auto strategy = EnhancedStrategy::Create(data.train, grouping,
                                           GenFoldsOptions(), scoring, options)
                      .value();
  SuccessiveHalving sha(space.EnumerateGrid(), strategy.get());
  Rng rng(9);
  HpoResult result = sha.Optimize(data.train, &rng).value();
  EXPECT_TRUE(result.best_config.Has("activation"));
}

TEST(EndToEndTest, ParallelShaWithRealModelsMatchesSerial) {
  Env env = MakeEnv(90);
  auto run = [&env](ThreadPool* pool) {
    VanillaStrategy strategy(env.options);
    ShaOptions options;
    options.pool = pool;
    SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy, options);
    Rng rng(91);
    return sha.Optimize(env.data.train, &rng).value();
  };
  HpoResult serial = run(nullptr);
  ThreadPool pool(3);
  HpoResult parallel = run(&pool);
  EXPECT_TRUE(serial.best_config == parallel.best_config);
  EXPECT_DOUBLE_EQ(serial.best_score, parallel.best_score);
}

TEST(EndToEndTest, CashSpaceAcrossThreeModelFamilies) {
  // SHA over a joint space whose "model" hyperparameter spans mlp, forest
  // and gbdt; every family must evaluate cleanly through the strategy.
  Env env = MakeEnv(100);
  ConfigSpace space;
  ASSERT_TRUE(space.Add("model", {"mlp", "random_forest", "gbdt"}).ok());
  ASSERT_TRUE(space.Add("max_depth", {"4", "8"}).ok());
  ASSERT_TRUE(space.Add("num_trees", {"10"}).ok());
  ASSERT_TRUE(space.Add("num_rounds", {"15"}).ok());
  VanillaStrategy strategy(env.options);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Rng rng(101);
  HpoResult result = sha.Optimize(env.data.train, &rng).value();
  EXPECT_TRUE(result.best_config.Has("model"));
  FinalEvaluation final =
      EvaluateFinalConfig(result.best_config, env.data.train, env.data.test,
                          EvalMetric::kAccuracy, env.options.factory)
          .value();
  EXPECT_GT(final.test_metric, 0.5);
}

TEST(EndToEndTest, SearchedModelSurvivesSerializationRoundTrip) {
  Env env = MakeEnv(110);
  VanillaStrategy strategy(env.options);
  SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy);
  Rng rng(111);
  HpoResult result = sha.Optimize(env.data.train, &rng).value();

  ModelSpec spec =
      ModelSpecFromConfiguration(result.best_config, env.options.factory)
          .value();
  std::unique_ptr<Model> model = BuildModel(spec, env.options.factory.seed);
  ASSERT_TRUE(model->Fit(env.data.train).ok());

  std::string path = ::testing::TempDir() + "/e2e_model.bhpo";
  ASSERT_TRUE(SaveModelToFile(*model, path).ok());
  std::unique_ptr<Model> loaded = LoadModelFromFile(path).value();
  EXPECT_EQ(model->PredictLabels(env.data.test.features()),
            loaded->PredictLabels(env.data.test.features()));
}

TEST(EndToEndTest, DeterministicEndToEnd) {
  Env env = MakeEnv(80);
  auto run = [&env](uint64_t seed) {
    VanillaStrategy strategy(env.options);
    SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy);
    Rng rng(seed);
    return sha.Optimize(env.data.train, &rng).value().best_config.Key();
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace bhpo
