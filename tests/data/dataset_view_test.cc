#include "data/dataset_view.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "hpo/model_factory.h"
#include "ml/decision_tree.h"

namespace bhpo {
namespace {

Dataset SmallBlobs(size_t n = 60, uint64_t seed = 3) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 4;
  spec.num_classes = 3;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

Dataset SmallRegression(size_t n = 60, uint64_t seed = 4) {
  RegressionSpec spec;
  spec.n = n;
  spec.num_features = 5;
  spec.seed = seed;
  return MakeRegression(spec).value().Standardized();
}

TEST(DatasetViewTest, FullViewMirrorsParent) {
  Dataset data = SmallBlobs();
  DatasetView view(data);
  EXPECT_TRUE(view.valid());
  EXPECT_TRUE(view.is_full());
  EXPECT_EQ(view.n(), data.n());
  EXPECT_EQ(view.num_features(), data.num_features());
  EXPECT_EQ(view.num_classes(), data.num_classes());
  EXPECT_TRUE(view.is_classification());
  for (size_t i = 0; i < data.n(); ++i) {
    EXPECT_EQ(view.parent_index(i), i);
    EXPECT_EQ(view.label(i), data.label(i));
    EXPECT_EQ(view.row(i), data.features().Row(i));  // Same storage.
  }
}

TEST(DatasetViewTest, DefaultConstructedIsInvalid) {
  DatasetView view;
  EXPECT_FALSE(view.valid());
  EXPECT_FALSE(view.is_full());
}

TEST(DatasetViewTest, SubsetViewAccessorsMatchParentRows) {
  Dataset data = SmallBlobs();
  std::vector<size_t> idx = {5, 0, 17, 5, 42};  // Repeats allowed.
  DatasetView view(data, idx);
  EXPECT_FALSE(view.is_full());
  ASSERT_EQ(view.n(), idx.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(view.parent_index(i), idx[i]);
    EXPECT_EQ(view.label(i), data.label(idx[i]));
    for (size_t j = 0; j < data.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(view.feature(i, j), data.features()(idx[i], j));
    }
  }
}

TEST(DatasetViewTest, RegressionAccessors) {
  Dataset data = SmallRegression();
  std::vector<size_t> idx = {3, 30, 12};
  DatasetView view(data, idx);
  EXPECT_FALSE(view.is_classification());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(view.target(i), data.target(idx[i]));
  }
  std::vector<double> targets = view.GatherTargets();
  ASSERT_EQ(targets.size(), idx.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(targets[i], data.target(idx[i]));
  }
}

// ViewOf on a subset view must re-map through to the parent: row i of the
// composed view is parent row outer[inner[i]].
TEST(DatasetViewTest, SubsetOfSubsetComposesToParent) {
  Dataset data = SmallBlobs();
  std::vector<size_t> outer = {10, 20, 30, 40, 50};
  DatasetView first = DatasetView(data).ViewOf(outer);
  std::vector<size_t> inner = {4, 0, 2};
  DatasetView second = first.ViewOf(inner);
  ASSERT_EQ(second.n(), inner.size());
  for (size_t i = 0; i < inner.size(); ++i) {
    EXPECT_EQ(second.parent_index(i), outer[inner[i]]);
    EXPECT_EQ(second.label(i), data.label(outer[inner[i]]));
  }
  EXPECT_EQ(&second.parent(), &data);  // One indirection deep, not two.
}

// The rvalue overload remaps the caller's vector in place; it must compose
// exactly like the lvalue overload.
TEST(DatasetViewTest, RvalueViewOfComposesLikeLvalue) {
  Dataset data = SmallBlobs();
  std::vector<size_t> outer = {10, 20, 30, 40, 50};
  DatasetView first = DatasetView(data).ViewOf(outer);
  std::vector<size_t> inner = {4, 0, 2};
  DatasetView by_copy = first.ViewOf(inner);
  DatasetView by_move = first.ViewOf(std::vector<size_t>{4, 0, 2});
  ASSERT_EQ(by_move.n(), by_copy.n());
  for (size_t i = 0; i < by_copy.n(); ++i) {
    EXPECT_EQ(by_move.parent_index(i), by_copy.parent_index(i));
  }
}

TEST(DatasetViewDeathTest, RvalueViewOfRejectsOutOfRangeBeforeRemapping) {
  Dataset data = SmallBlobs();
  std::vector<size_t> outer = {10, 20, 30};
  DatasetView view = DatasetView(data).ViewOf(outer);
  // Index 3 is out of range for the 3-row view. The overload must validate
  // the whole vector before remapping any element (a mid-loop failure used
  // to leave the caller's vector half parent-space, half view-space).
  EXPECT_DEATH(view.ViewOf(std::vector<size_t>{0, 3, 1}),
               "ViewOf index out of range");
  EXPECT_DEATH(view.ViewOf(std::vector<size_t>{0, 1, 100}),
               "ViewOf index out of range");
}

TEST(DatasetViewDeathTest, LvalueViewOfRejectsOutOfRange) {
  Dataset data = SmallBlobs();
  DatasetView view = DatasetView(data).ViewOf({0, 1, 2});
  std::vector<size_t> bad = {5};
  EXPECT_DEATH(view.ViewOf(bad), "BHPO_CHECK");
}

TEST(DatasetViewTest, GatherAndMaterializeMatchSubset) {
  Dataset data = SmallBlobs();
  std::vector<size_t> idx = {7, 3, 55, 21};
  DatasetView view(data, idx);
  Dataset subset = data.Subset(idx);

  Matrix gathered = view.GatherFeatures();
  ASSERT_EQ(gathered.rows(), subset.n());
  ASSERT_EQ(gathered.cols(), subset.num_features());
  for (size_t i = 0; i < subset.n(); ++i) {
    for (size_t j = 0; j < subset.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(gathered(i, j), subset.features()(i, j));
    }
  }
  EXPECT_EQ(view.GatherLabels(), subset.labels());

  Dataset materialized = view.Materialize();
  EXPECT_EQ(materialized.n(), subset.n());
  EXPECT_EQ(materialized.labels(), subset.labels());
  EXPECT_EQ(materialized.num_classes(), subset.num_classes());
}

TEST(DatasetViewTest, ClassCountsAndIndicesByClass) {
  Dataset data = SmallBlobs();
  std::vector<size_t> idx;
  for (size_t i = 0; i < data.n(); i += 2) idx.push_back(i);
  DatasetView view(data, idx);
  std::vector<size_t> counts = view.ClassCounts();
  std::vector<std::vector<size_t>> by_class = view.IndicesByClass();
  ASSERT_EQ(counts.size(), static_cast<size_t>(data.num_classes()));
  ASSERT_EQ(by_class.size(), counts.size());
  size_t total = 0;
  for (size_t c = 0; c < counts.size(); ++c) {
    EXPECT_EQ(by_class[c].size(), counts[c]);
    for (size_t i : by_class[c]) {
      EXPECT_EQ(view.label(i), static_cast<int>(c));
    }
    total += counts[c];
  }
  EXPECT_EQ(total, view.n());
}

// Training from a view must produce the same model as training from a
// materialized copy of the same rows — for every family the model factory
// can build. Checked via predictions on the full feature matrix.
void ExpectViewFitEqualsMaterializedFit(const std::string& family,
                                        const Dataset& data) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < data.n(); ++i) {
    if (i % 3 != 0) idx.push_back(i);
  }
  DatasetView view(data, idx);
  Dataset copy = data.Subset(idx);

  Configuration config;
  if (family != "mlp") config.Set("model", family);
  FactoryOptions options;
  options.max_iter = 12;
  options.seed = 9;
  ModelSpec spec = ModelSpecFromConfiguration(config, options).value();

  std::unique_ptr<Model> from_view = BuildModel(spec, options.seed);
  std::unique_ptr<Model> from_copy = BuildModel(spec, options.seed);
  ASSERT_TRUE(from_view->Fit(view).ok()) << family;
  ASSERT_TRUE(from_copy->Fit(copy).ok()) << family;

  if (data.is_classification()) {
    EXPECT_EQ(from_view->PredictLabels(data.features()),
              from_copy->PredictLabels(data.features()))
        << family;
    // View-based prediction agrees with matrix-based prediction.
    EXPECT_EQ(from_view->PredictLabels(DatasetView(data)),
              from_view->PredictLabels(data.features()))
        << family;
  } else {
    // Bit equality: both fits and both prediction paths run the same
    // operations in the same order.
    std::vector<double> v = from_view->PredictValues(data.features());
    std::vector<double> c = from_copy->PredictValues(data.features());
    std::vector<double> vv = from_view->PredictValues(DatasetView(data));
    ASSERT_EQ(v.size(), c.size()) << family;
    ASSERT_EQ(vv.size(), v.size()) << family;
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(v[i]), std::bit_cast<uint64_t>(c[i]))
          << family << " row " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(vv[i]), std::bit_cast<uint64_t>(v[i]))
          << family << " row " << i;
    }
  }
}

TEST(DatasetViewModelTest, MlpViewFitMatchesMaterialized) {
  ExpectViewFitEqualsMaterializedFit("mlp", SmallBlobs(90));
}

TEST(DatasetViewModelTest, RandomForestViewFitMatchesMaterialized) {
  ExpectViewFitEqualsMaterializedFit("random_forest", SmallBlobs(90));
}

TEST(DatasetViewModelTest, GbdtViewFitMatchesMaterialized) {
  ExpectViewFitEqualsMaterializedFit("gbdt", SmallBlobs(90));
}

TEST(DatasetViewModelTest, RegressionFamiliesViewFitMatchesMaterialized) {
  Dataset data = SmallRegression(90);
  ExpectViewFitEqualsMaterializedFit("mlp", data);
  ExpectViewFitEqualsMaterializedFit("random_forest", data);
  ExpectViewFitEqualsMaterializedFit("gbdt", data);
}

TEST(DatasetViewModelTest, DecisionTreeViewFitMatchesMaterialized) {
  Dataset data = SmallBlobs(90);
  std::vector<size_t> idx;
  for (size_t i = 0; i < data.n(); i += 2) idx.push_back(i);
  DatasetView view(data, idx);
  Dataset copy = data.Subset(idx);

  DecisionTreeConfig config;
  config.max_depth = 5;
  DecisionTree from_view(config);
  DecisionTree from_copy(config);
  ASSERT_TRUE(from_view.Fit(view).ok());
  ASSERT_TRUE(from_copy.Fit(copy).ok());
  EXPECT_EQ(from_view.node_count(), from_copy.node_count());
  EXPECT_EQ(from_view.depth(), from_copy.depth());
  EXPECT_EQ(from_view.PredictLabels(data.features()),
            from_copy.PredictLabels(data.features()));
  EXPECT_EQ(from_view.PredictLabels(DatasetView(data)),
            from_view.PredictLabels(data.features()));
}

}  // namespace
}  // namespace bhpo
