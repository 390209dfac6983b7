// Prediction-path lock. Every model answers the same question whether its
// rows arrive as a dense Matrix or as a DatasetView, and the answer must not
// depend on the path: each case fits one model with fixed seeds, then checks
// that PredictLabels, PredictValues, PredictProba and the forest's
// PredictValuesWithStd on a view are bit-equal to the same call on the view's
// gathered feature matrix. Two views are checked per model: the identity
// view, and a subset view whose indices repeat and run in descending order
// (with one ascending run, so the gather coalesces some rows and copies the
// rest one by one).
//
// A recorded FNV-1a digest of the dense-path outputs per case pins the
// predictions themselves, so a change to the order of any per-element
// operation (the forest's tree averaging, the boosted stage sums, a
// softmax) shows up even when both paths change together. ctest also runs
// the suite with BHPO_SIMD=off.

#include <cstdint>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_view.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "tests/ml/tree_digest.h"

namespace bhpo {
namespace {

constexpr size_t kRows = 150;

// 0 classes = regression.
Dataset MakeData(int num_classes) {
  if (num_classes > 0) {
    BlobsSpec spec;
    spec.n = kRows;
    spec.num_features = 7;
    spec.num_classes = num_classes;
    spec.label_noise = 0.1;
    spec.seed = 41;
    return MakeBlobs(spec).value().Standardized();
  }
  RegressionSpec spec;
  spec.n = kRows;
  spec.num_features = 7;
  spec.seed = 43;
  return MakeRegression(spec).value().Standardized();
}

// Every row in descending order, every fifth one twice, then an ascending
// run of 30 adjacent rows.
std::vector<size_t> SubsetIndices(size_t n) {
  std::vector<size_t> idx;
  for (size_t i = n; i-- > 0;) {
    idx.push_back(i);
    if (i % 5 == 0) idx.push_back(i);
  }
  for (size_t i = 10; i < 40; ++i) idx.push_back(i);
  return idx;
}

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want) {
  Fnv1a a;
  Fnv1a b;
  a.Values(got);
  b.Values(want);
  EXPECT_EQ(Hex(a.value()), Hex(b.value()));
}

void ExpectBitEqual(const Matrix& got, const Matrix& want) {
  Fnv1a a;
  Fnv1a b;
  a.Matrix(got);
  b.Matrix(want);
  EXPECT_EQ(Hex(a.value()), Hex(b.value()));
}

// Checks every prediction call of `model` on `view` against the same call
// on the gathered rows, and hashes the gathered-path outputs into `h`.
template <typename M>
void CheckView(const M& model, const DatasetView& view, Fnv1a* h) {
  const Matrix dense = view.GatherFeatures();
  if (view.is_classification()) {
    std::vector<int> labels = model.PredictLabels(dense);
    Matrix proba = model.PredictProba(dense);
    EXPECT_EQ(model.PredictLabels(view), labels);
    ExpectBitEqual(model.PredictProba(view), proba);
    h->Labels(labels);
    h->Matrix(proba);
  } else {
    std::vector<double> values = model.PredictValues(dense);
    ExpectBitEqual(model.PredictValues(view), values);
    h->Values(values);
  }
  if constexpr (std::is_same_v<M, RandomForest>) {
    if (view.is_classification()) return;
    std::vector<double> mean, stddev;
    model.PredictValuesWithStd(dense, &mean, &stddev);
    std::vector<double> view_mean, view_stddev;
    model.PredictValuesWithStd(view, &view_mean, &view_stddev);
    ExpectBitEqual(view_mean, mean);
    ExpectBitEqual(view_stddev, stddev);
    h->Values(mean);
    h->Values(stddev);
  }
}

// Fits `model` on `data`, then checks the full view and the subset view.
template <typename M>
uint64_t PathDigest(M* model, const Dataset& data) {
  Status status = model->Fit(data);
  EXPECT_TRUE(status.ok()) << status.ToString();
  Fnv1a h;
  CheckView(*model, DatasetView(data), &h);
  CheckView(*model, DatasetView(data, SubsetIndices(data.n())), &h);
  return h.value();
}

uint64_t TreeDigest(int num_classes) {
  DecisionTreeConfig config;
  config.max_depth = 6;
  DecisionTree model(config);
  return PathDigest(&model, MakeData(num_classes));
}

uint64_t ForestDigest(int num_classes) {
  RandomForestConfig config;
  config.num_trees = 7;
  config.bootstrap = true;
  config.seed = 3;
  RandomForest model(config);
  return PathDigest(&model, MakeData(num_classes));
}

uint64_t GbdtDigest(int num_classes) {
  GbdtConfig config;
  config.num_rounds = 6;
  config.max_depth = 3;
  config.subsample = 0.8;
  config.seed = 5;
  GbdtModel model(config);
  return PathDigest(&model, MakeData(num_classes));
}

uint64_t MlpDigest(int num_classes) {
  MlpConfig config;
  config.hidden_layer_sizes = {9};
  config.solver = Solver::kAdam;
  config.max_iter = 5;
  config.learning_rate_init = 0.01;
  config.seed = 11;
  MlpModel model(config);
  return PathDigest(&model, MakeData(num_classes));
}

TEST(PredictionPathTest, DecisionTreeClassifier) {
  EXPECT_EQ(Hex(TreeDigest(6)), Hex(0x41e274b006fee704ULL));
}

TEST(PredictionPathTest, DecisionTreeRegressor) {
  EXPECT_EQ(Hex(TreeDigest(0)), Hex(0x686c39dca7b88ff1ULL));
}

TEST(PredictionPathTest, RandomForestBootstrapClassifier) {
  EXPECT_EQ(Hex(ForestDigest(6)), Hex(0x0348d086936e1a7eULL));
}

TEST(PredictionPathTest, RandomForestBootstrapRegressor) {
  EXPECT_EQ(Hex(ForestDigest(0)), Hex(0x61e35f919e247483ULL));
}

TEST(PredictionPathTest, Gbdt6Class) {
  EXPECT_EQ(Hex(GbdtDigest(6)), Hex(0x0924d232f6949d39ULL));
}

TEST(PredictionPathTest, GbdtRegressor) {
  EXPECT_EQ(Hex(GbdtDigest(0)), Hex(0x36cf4e20c6626da6ULL));
}

TEST(PredictionPathTest, MlpClassifier) {
  EXPECT_EQ(Hex(MlpDigest(3)), Hex(0x89e3f4be5e984da3ULL));
}

TEST(PredictionPathTest, MlpRegressor) {
  EXPECT_EQ(Hex(MlpDigest(0)), Hex(0x605d1517b10cd7d0ULL));
}

// An empty subset view has an index table with no rows: every model
// predicts zero rows, with the class count as the probability width.
TEST(PredictionPathTest, EmptySubsetViewPredictsNoRows) {
  Dataset classes = MakeData(4);
  Dataset values = MakeData(0);
  DatasetView no_classes(classes, {});
  DatasetView no_values(values, {});

  DecisionTree tree;
  RandomForest forest(RandomForestConfig{.num_trees = 3, .tree = {}});
  GbdtModel gbdt(GbdtConfig{.num_rounds = 2});
  MlpModel mlp(MlpConfig{.hidden_layer_sizes = {4}, .max_iter = 2});
  ASSERT_TRUE(tree.Fit(classes).ok());
  ASSERT_TRUE(forest.Fit(values).ok());
  ASSERT_TRUE(gbdt.Fit(classes).ok());
  ASSERT_TRUE(mlp.Fit(classes).ok());

  EXPECT_TRUE(tree.PredictLabels(no_classes).empty());
  EXPECT_EQ(tree.PredictProba(no_classes).rows(), 0u);
  EXPECT_EQ(tree.PredictProba(no_classes).cols(), 4u);
  EXPECT_TRUE(forest.PredictValues(no_values).empty());
  std::vector<double> mean, stddev;
  forest.PredictValuesWithStd(no_values, &mean, &stddev);
  EXPECT_TRUE(mean.empty());
  EXPECT_TRUE(stddev.empty());
  EXPECT_TRUE(gbdt.PredictLabels(no_classes).empty());
  EXPECT_EQ(gbdt.PredictProba(no_classes).cols(), 4u);
  EXPECT_TRUE(mlp.PredictLabels(no_classes).empty());
  EXPECT_EQ(mlp.PredictProba(no_classes).rows(), 0u);
  EXPECT_EQ(mlp.PredictProba(no_classes).cols(), 4u);
}

}  // namespace
}  // namespace bhpo
