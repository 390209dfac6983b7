#include "ml/serialization.h"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace bhpo {
namespace {

Dataset TrainData(uint64_t seed = 1, int classes = 3) {
  BlobsSpec spec;
  spec.n = 120;
  spec.num_features = 5;
  spec.num_classes = classes;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

Dataset RegData(uint64_t seed = 2) {
  RegressionSpec spec;
  spec.n = 120;
  spec.num_features = 5;
  spec.seed = seed;
  return MakeRegression(spec).value().Standardized();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(MlpSerializationTest, RoundTripPreservesPredictions) {
  Dataset data = TrainData();
  MlpConfig config;
  config.hidden_layer_sizes = {8, 6};
  config.activation = Activation::kTanh;
  config.max_iter = 20;
  config.seed = 3;
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveMlp(model, stream).ok());
  std::unique_ptr<MlpModel> loaded = LoadMlp(stream).value();

  EXPECT_EQ(loaded->config().hidden_layer_sizes,
            config.hidden_layer_sizes);
  EXPECT_EQ(loaded->config().activation, Activation::kTanh);
  EXPECT_EQ(model.PredictLabels(data.features()),
            loaded->PredictLabels(data.features()));
  // Probabilities bit-identical (full-precision doubles).
  Matrix p1 = model.PredictProba(data.features());
  Matrix p2 = loaded->PredictProba(data.features());
  for (size_t i = 0; i < p1.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.data()[i], p2.data()[i]);
  }
}

TEST(MlpSerializationTest, RegressionRoundTrip) {
  Dataset data = RegData();
  MlpConfig config;
  config.hidden_layer_sizes = {10};
  config.solver = Solver::kLbfgs;
  config.max_iter = 30;
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveMlp(model, stream).ok());
  std::unique_ptr<MlpModel> loaded = LoadMlp(stream).value();
  std::vector<double> a = model.PredictValues(data.features());
  std::vector<double> b = loaded->PredictValues(data.features());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(MlpSerializationTest, UnfittedModelRefusesToSave) {
  MlpModel model{MlpConfig{}};
  std::stringstream stream;
  EXPECT_EQ(SaveMlp(model, stream).code(), StatusCode::kFailedPrecondition);
}

TEST(MlpSerializationTest, CorruptStreamsRejected) {
  std::stringstream empty;
  EXPECT_FALSE(LoadMlp(empty).ok());
  std::stringstream wrong("forest\n");
  EXPECT_FALSE(LoadMlp(wrong).ok());
  std::stringstream truncated("mlp\ntask classification 3\nhidden 1 8\n");
  EXPECT_FALSE(LoadMlp(truncated).ok());
}

TEST(TreeSerializationTest, RoundTripPreservesPredictions) {
  Dataset data = TrainData(5, 2);
  DecisionTreeConfig config;
  config.max_depth = 4;
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(data).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveDecisionTree(tree, stream).ok());
  std::unique_ptr<DecisionTree> loaded = LoadDecisionTree(stream).value();
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  EXPECT_EQ(loaded->depth(), tree.depth());
  EXPECT_EQ(tree.PredictLabels(data.features()),
            loaded->PredictLabels(data.features()));
}

TEST(TreeSerializationTest, OutOfRangeChildRejected) {
  std::stringstream bad(
      "tree\ntask classification 2\nconfig 0 2 1 0 0\n"
      "depth 1 nodes 1\n0 0.5 5 6 2 0.5 0.5\n");  // children 5,6 of 1 node
  EXPECT_FALSE(LoadDecisionTree(bad).ok());
}

// ---------------------------------------------------------------------------
// Trees that would crash or hang prediction are rejected on load. Each
// stream is a valid model except for the one field under test, and a
// control with that field fixed loads.
// ---------------------------------------------------------------------------

// A saved tree of `task` ("classification K" or "regression 0") with the
// given node lines.
std::string TreeText(const std::string& task, const std::string& nodes,
                     int node_count) {
  return "tree\ntask " + task + "\nconfig 0 2 1 0 0\ndepth 1 nodes " +
         std::to_string(node_count) + "\n" + nodes;
}

// A root split on feature 0 with two class-frequency leaves.
const char kStump[] =
    "0 0.5 1 2 0\n-1 0 -1 -1 2 1 0\n-1 0 -1 -1 2 0 1\n";

Status LoadTreeStatus(const std::string& text) {
  std::stringstream in(text);
  return LoadDecisionTree(in).status();
}

TEST(TreeSerializationTest, SplitChildrenMustFollowTheirNode) {
  ASSERT_TRUE(LoadTreeStatus(TreeText("classification 2", kStump, 3)).ok());
  const char* bad[] = {
      "0 0.5 -5 1 0\n-1 0 -1 -1 2 1 0\n",  // Negative child.
      "0 0.5 0 0 0\n-1 0 -1 -1 2 1 0\n",   // Its own child: a cycle.
      "-1 0 -1 -1 2 1 0\n0 0.5 0 0 0\n",   // A child before its node.
  };
  for (const char* nodes : bad) {
    EXPECT_EQ(LoadTreeStatus(TreeText("classification 2", nodes, 2)).code(),
              StatusCode::kInvalidArgument)
        << nodes;
  }
}

TEST(TreeSerializationTest, FeatureBelowLeafMarkerRejected) {
  EXPECT_EQ(LoadTreeStatus(TreeText("classification 2",
                                    "-2 0 -1 -1 2 1 0\n", 1))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TreeSerializationTest, LeafPayloadMustMatchOutputs) {
  ASSERT_TRUE(
      LoadTreeStatus(TreeText("classification 3", "-1 0 -1 -1 3 1 0 0\n", 1))
          .ok());
  ASSERT_TRUE(
      LoadTreeStatus(TreeText("regression 0", "-1 0 -1 -1 1 2.5\n", 1)).ok());
  const std::pair<const char*, const char*> bad[] = {
      {"classification 3", "-1 0 -1 -1 1 1\n"},  // 3 classes, 1 value.
      {"classification 1", "-1 0 -1 -1 1 1\n"},  // Fewer than 2 classes.
      {"regression 0", "-1 0 -1 -1 2 1 0\n"},    // Regression, 2 values.
  };
  for (const auto& [task, nodes] : bad) {
    EXPECT_EQ(LoadTreeStatus(TreeText(task, nodes, 1)).code(),
              StatusCode::kInvalidArgument)
        << task << ": " << nodes;
  }
}

TEST(TreeSerializationTest, EnsembleMembersMustMatchTheEnsemble) {
  std::string cls = TreeText("classification 2", kStump, 3);
  std::string cls3 = TreeText("classification 3", "-1 0 -1 -1 3 1 0 0\n", 1);
  std::string reg = TreeText("regression 0", "-1 0 -1 -1 1 0.5\n", 1);
  auto forest = [](const std::string& task, const std::string& tree) {
    std::stringstream in("forest\ntask " + task + "\nconfig 1 1 0\ntrees 1\n" +
                         tree);
    return LoadRandomForest(in).status();
  };
  EXPECT_TRUE(forest("classification 2", cls).ok());
  EXPECT_TRUE(forest("regression 0", reg).ok());
  EXPECT_EQ(forest("classification 2", cls3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(forest("classification 2", reg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(forest("regression 0", cls).code(), StatusCode::kInvalidArgument);

  // A GBDT stage is one regression tree per output, whatever the task.
  auto gbdt = [](const std::string& tree) {
    std::stringstream in(
        "gbdt\ntask classification 2\nconfig 1 0.1 3 1 1 0\nbase 2 0 0\n"
        "stages 1\nstage 2\n" +
        tree + tree);
    return LoadGbdt(in).status();
  };
  EXPECT_TRUE(gbdt(reg).ok());
  EXPECT_EQ(gbdt(cls).code(), StatusCode::kInvalidArgument);
}

TEST(ForestSerializationTest, RoundTripPreservesPredictions) {
  Dataset data = TrainData(7, 3);
  RandomForestConfig config;
  config.num_trees = 7;
  config.seed = 8;
  RandomForest forest(config);
  ASSERT_TRUE(forest.Fit(data).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveRandomForest(forest, stream).ok());
  std::unique_ptr<RandomForest> loaded = LoadRandomForest(stream).value();
  EXPECT_EQ(loaded->num_trees(), 7u);
  EXPECT_EQ(forest.PredictLabels(data.features()),
            loaded->PredictLabels(data.features()));
}

TEST(FileSerializationTest, MlpThroughFileDispatch) {
  Dataset data = TrainData(9);
  MlpConfig config;
  config.hidden_layer_sizes = {6};
  config.max_iter = 10;
  MlpModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::string path = TempPath("model_mlp.bhpo");
  ASSERT_TRUE(SaveModelToFile(model, path).ok());
  std::unique_ptr<Model> loaded = LoadModelFromFile(path).value();
  EXPECT_EQ(model.PredictLabels(data.features()),
            loaded->PredictLabels(data.features()));
}

TEST(FileSerializationTest, ForestThroughFileDispatch) {
  Dataset data = RegData(10);
  RandomForestConfig config;
  config.num_trees = 5;
  RandomForest forest(config);
  ASSERT_TRUE(forest.Fit(data).ok());
  std::string path = TempPath("model_forest.bhpo");
  ASSERT_TRUE(SaveModelToFile(forest, path).ok());
  std::unique_ptr<Model> loaded = LoadModelFromFile(path).value();
  std::vector<double> a = forest.PredictValues(data.features());
  std::vector<double> b = loaded->PredictValues(data.features());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(GbdtSerializationTest, RoundTripPreservesPredictions) {
  Dataset data = TrainData(11, 3);
  GbdtConfig config;
  config.num_rounds = 8;
  config.seed = 12;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveGbdt(model, stream).ok());
  std::unique_ptr<GbdtModel> loaded = LoadGbdt(stream).value();
  EXPECT_EQ(loaded->rounds_fit(), 8);
  EXPECT_EQ(model.PredictLabels(data.features()),
            loaded->PredictLabels(data.features()));
  Matrix p1 = model.PredictProba(data.features());
  Matrix p2 = loaded->PredictProba(data.features());
  for (size_t i = 0; i < p1.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.data()[i], p2.data()[i]);
  }
}

TEST(GbdtSerializationTest, RegressionThroughFileDispatch) {
  Dataset data = RegData(13);
  GbdtConfig config;
  config.num_rounds = 12;
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::string path = TempPath("model_gbdt.bhpo");
  ASSERT_TRUE(SaveModelToFile(model, path).ok());
  std::unique_ptr<Model> loaded = LoadModelFromFile(path).value();
  std::vector<double> a = model.PredictValues(data.features());
  std::vector<double> b = loaded->PredictValues(data.features());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(FileSerializationTest, MissingFileAndBadHeader) {
  EXPECT_FALSE(LoadModelFromFile(TempPath("nope.bhpo")).ok());
  std::string path = TempPath("bad_header.bhpo");
  {
    std::ofstream out(path);
    out << "not-a-model 1\nmlp\n";
  }
  EXPECT_FALSE(LoadModelFromFile(path).ok());
  {
    std::ofstream out(path);
    out << "bhpo-model 99\nmlp\n";  // Unsupported version.
  }
  EXPECT_FALSE(LoadModelFromFile(path).ok());
}

}  // namespace
}  // namespace bhpo
