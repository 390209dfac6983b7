#include "hpo/model_factory.h"

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(ParseHiddenLayersTest, VariousFormats) {
  EXPECT_EQ(ParseHiddenLayers("(30)").value(), (std::vector<size_t>{30}));
  EXPECT_EQ(ParseHiddenLayers("(30,30)").value(),
            (std::vector<size_t>{30, 30}));
  EXPECT_EQ(ParseHiddenLayers("40,40").value(), (std::vector<size_t>{40, 40}));
  EXPECT_EQ(ParseHiddenLayers(" ( 50 , 50 ) ").value(),
            (std::vector<size_t>{50, 50}));
  EXPECT_EQ(ParseHiddenLayers("(30,)").value(), (std::vector<size_t>{30}));
}

TEST(ParseHiddenLayersTest, RejectsBadInput) {
  EXPECT_FALSE(ParseHiddenLayers("(30").ok());
  EXPECT_FALSE(ParseHiddenLayers("()").ok());
  EXPECT_FALSE(ParseHiddenLayers("(x)").ok());
  EXPECT_FALSE(ParseHiddenLayers("(0)").ok());
  EXPECT_FALSE(ParseHiddenLayers("(-5)").ok());
  EXPECT_FALSE(ParseHiddenLayers("").ok());
}

TEST(ModelFactoryTest, FullTable3ConfigurationTranslates) {
  Configuration config;
  config.Set("hidden_layer_sizes", "(40,40)");
  config.Set("activation", "tanh");
  config.Set("solver", "sgd");
  config.Set("learning_rate_init", "0.05");
  config.Set("batch_size", "64");
  config.Set("learning_rate", "adaptive");
  config.Set("momentum", "0.8");
  config.Set("early_stopping", "true");
  FactoryOptions options;
  options.max_iter = 33;
  options.seed = 99;
  MlpConfig mlp = MlpConfigFromConfiguration(config, options).value();
  EXPECT_EQ(mlp.hidden_layer_sizes, (std::vector<size_t>{40, 40}));
  EXPECT_EQ(mlp.activation, Activation::kTanh);
  EXPECT_EQ(mlp.solver, Solver::kSgd);
  EXPECT_DOUBLE_EQ(mlp.learning_rate_init, 0.05);
  EXPECT_EQ(mlp.batch_size, 64u);
  EXPECT_EQ(mlp.learning_rate, LearningRateSchedule::kAdaptive);
  EXPECT_DOUBLE_EQ(mlp.momentum, 0.8);
  EXPECT_TRUE(mlp.early_stopping);
  EXPECT_EQ(mlp.max_iter, 33);
  EXPECT_EQ(mlp.seed, 99u);
}

TEST(ModelFactoryTest, MissingHyperparametersKeepSklearnDefaults) {
  Configuration config;  // Empty: everything defaulted.
  MlpConfig mlp = MlpConfigFromConfiguration(config, {}).value();
  EXPECT_EQ(mlp.hidden_layer_sizes, (std::vector<size_t>{100}));
  EXPECT_EQ(mlp.activation, Activation::kRelu);
  EXPECT_EQ(mlp.solver, Solver::kAdam);
  EXPECT_DOUBLE_EQ(mlp.learning_rate_init, 0.001);
  EXPECT_EQ(mlp.batch_size, 0u);  // auto
  EXPECT_FALSE(mlp.early_stopping);
}

TEST(ModelFactoryTest, RejectsInvalidValues) {
  FactoryOptions options;
  Configuration config;
  config.Set("activation", "swish");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("solver", "lion");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("learning_rate_init", "-0.1");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("learning_rate_init", "nan");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("batch_size", "0");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("momentum", "1.2");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("momentum", "nan");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());

  config = Configuration();
  config.Set("early_stopping", "maybe");
  EXPECT_FALSE(MlpConfigFromConfiguration(config, options).ok());
}

TEST(ModelFactoryTest, MakeMlpFactoryProducesWorkingFactory) {
  Configuration config;
  config.Set("hidden_layer_sizes", "(8)");
  config.Set("solver", "adam");
  ModelSpec spec = ModelSpecFromConfiguration(config, {}).value();
  ASSERT_TRUE(std::holds_alternative<MlpConfig>(spec));
  std::unique_ptr<Model> a = BuildModel(spec, 0);
  std::unique_ptr<Model> b = BuildModel(spec, 42);
  EXPECT_NE(a.get(), nullptr);
  EXPECT_NE(a.get(), b.get());  // Fresh model per call.
  // Each model carries the seed it was built at.
  EXPECT_EQ(dynamic_cast<const MlpModel&>(*a).config().seed, 0u);
  EXPECT_EQ(dynamic_cast<const MlpModel&>(*b).config().seed, 42u);
}

TEST(ModelFactoryTest, MakeMlpFactoryFailsEagerlyOnBadConfig) {
  Configuration config;
  config.Set("hidden_layer_sizes", "(oops)");
  EXPECT_FALSE(ModelSpecFromConfiguration(config, {}).ok());
  EXPECT_FALSE(MakeFoldModelFactory(config, {}).ok());
}

TEST(ModelFactoryTest, RandomForestConfigTranslates) {
  Configuration config;
  config.Set("model", "random_forest");
  config.Set("num_trees", "30");
  config.Set("max_depth", "6");
  config.Set("min_samples_leaf", "4");
  config.Set("max_features", "3");
  FactoryOptions options;
  options.seed = 5;
  RandomForestConfig rf =
      RandomForestConfigFromConfiguration(config, options).value();
  EXPECT_EQ(rf.num_trees, 30);
  EXPECT_EQ(rf.tree.max_depth, 6);
  EXPECT_EQ(rf.tree.min_samples_leaf, 4);
  EXPECT_EQ(rf.tree.max_features, 3);
  EXPECT_EQ(rf.seed, 5u);
}

TEST(ModelFactoryTest, RandomForestRejectsBadValues) {
  Configuration config;
  config.Set("num_trees", "0");
  EXPECT_FALSE(RandomForestConfigFromConfiguration(config, {}).ok());
  config = Configuration();
  config.Set("max_depth", "abc");
  EXPECT_FALSE(RandomForestConfigFromConfiguration(config, {}).ok());
}

TEST(ModelFactoryTest, GbdtRejectsNanValues) {
  for (const char* name : {"learning_rate_init", "subsample"}) {
    Configuration config;
    config.Set("model", "gbdt");
    config.Set(name, "nan");
    EXPECT_FALSE(GbdtConfigFromConfiguration(config, {}).ok()) << name;
  }
}

TEST(ModelFactoryTest, ModelFamilyDispatch) {
  Configuration mlp_config;  // No "model" key: defaults to MLP.
  ModelSpec mlp = ModelSpecFromConfiguration(mlp_config, {}).value();
  EXPECT_NE(dynamic_cast<MlpModel*>(BuildModel(mlp, 0).get()), nullptr);

  Configuration rf_config;
  rf_config.Set("model", "random_forest");
  rf_config.Set("num_trees", "5");
  ModelSpec rf = ModelSpecFromConfiguration(rf_config, {}).value();
  EXPECT_EQ(std::get<RandomForestConfig>(rf).num_trees, 5);
  EXPECT_NE(dynamic_cast<RandomForest*>(BuildModel(rf, 0).get()), nullptr);

  Configuration gbdt_config;
  gbdt_config.Set("model", "gbdt");
  ModelSpec gbdt = ModelSpecFromConfiguration(gbdt_config, {}).value();
  EXPECT_NE(dynamic_cast<GbdtModel*>(BuildModel(gbdt, 0).get()), nullptr);

  Configuration bogus;
  bogus.Set("model", "svm");
  auto r = ModelSpecFromConfiguration(bogus, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelFactoryTest, MixedFamilySearchSpaceWorksEndToEnd) {
  // A CASH-style space: the model family itself is a hyperparameter.
  Configuration rf;
  rf.Set("model", "random_forest");
  rf.Set("num_trees", "10");
  std::unique_ptr<Model> model =
      BuildModel(ModelSpecFromConfiguration(rf, {}).value(), 0);

  Matrix x = Matrix::FromRows(
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.1, 0}, {0.9, 1}});
  Dataset data = Dataset::Classification(x, {0, 1, 0, 1, 0, 1}).value();
  ASSERT_TRUE(model->Fit(data).ok());
  EXPECT_EQ(model->PredictLabels(data.features()).size(), data.n());
}

}  // namespace
}  // namespace bhpo
