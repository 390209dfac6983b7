// SortedColumns: the presorted per-fit index every tree of an ensemble fit
// trains on, and the non-finite-feature rejection that guards it (NaN has
// no place in a strict weak ordering, so sorting over it would be
// undefined behaviour).

#include "ml/sorted_columns.h"

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cv/cross_validate.h"
#include "cv/kfold.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace bhpo {
namespace {

// Small integer-valued features, so many distinct rows tie.
Dataset TiedClassification(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) {
      x(i, f) = static_cast<double>(rng.UniformIndex(5));
    }
    labels[i] = static_cast<int>(rng.UniformIndex(3));
  }
  return Dataset::Classification(std::move(x), std::move(labels), 3).value();
}

TEST(SortedColumnsTest, OrdersByValueThenFitLocalId) {
  Dataset data = TiedClassification(60, 4, 1);
  // A bootstrap-like view: repeated parent rows are distinct fit-local ids.
  Rng rng(2);
  std::vector<size_t> bag(50);
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  DatasetView view(data, bag);
  SortedColumns index = SortedColumns::Build(view).value();
  ASSERT_EQ(index.rows(), view.n());
  ASSERT_EQ(index.cols(), view.num_features());

  for (size_t f = 0; f < index.cols(); ++f) {
    const double* col = index.Column(f);
    const uint32_t* order = index.Order(f);
    const uint32_t* rank = index.Rank(f);
    std::vector<bool> seen(index.rows(), false);
    for (size_t p = 0; p < index.rows(); ++p) {
      uint32_t id = order[p];
      ASSERT_LT(id, index.rows());
      EXPECT_FALSE(seen[id]) << "order is not a permutation";
      seen[id] = true;
      EXPECT_EQ(col[id], view.feature(id, f));
      if (p == 0) {
        EXPECT_EQ(rank[id], 0u);
        continue;
      }
      uint32_t prev = order[p - 1];
      if (col[prev] == col[id]) {
        EXPECT_LT(prev, id) << "ties must break by fit-local id";
        EXPECT_EQ(rank[prev], rank[id]);
      } else {
        EXPECT_LT(col[prev], col[id]);
        EXPECT_EQ(rank[prev] + 1, rank[id]) << "ranks must be dense";
      }
    }
  }
}

TEST(SortedColumnsTest, RejectsEmptyView) {
  Dataset data = TiedClassification(10, 2, 3);
  EXPECT_EQ(SortedColumns::Build(DatasetView(data, {})).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Non-finite feature values: every tree model's Fit returns
// InvalidArgument, and cross-validation records a failed fold.
// ---------------------------------------------------------------------------

Dataset WithValue(double bad, Task task) {
  Dataset clean = TiedClassification(40, 3, 4);
  Matrix x = clean.features();
  x(17, 1) = bad;
  if (task == Task::kClassification) {
    return Dataset::Classification(std::move(x), clean.labels(), 3).value();
  }
  std::vector<double> targets(clean.n());
  for (size_t i = 0; i < clean.n(); ++i) targets[i] = 0.5 * clean.label(i);
  return Dataset::Regression(std::move(x), std::move(targets)).value();
}

const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

TEST(NonFiniteFeatureTest, SortedColumnsRejects) {
  for (double bad : kNonFinite) {
    Dataset data = WithValue(bad, Task::kClassification);
    Result<SortedColumns> index = SortedColumns::Build(DatasetView(data));
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(NonFiniteFeatureTest, TreeModelsRejectOnEveryLayout) {
  for (double bad : kNonFinite) {
    for (SplitLayout layout : {SplitLayout::kColBlocked,
                               SplitLayout::kRowMajor}) {
      for (Task task : {Task::kClassification, Task::kRegression}) {
        Dataset data = WithValue(bad, task);
        DecisionTreeConfig tree_config;
        tree_config.layout = layout;
        DecisionTree tree(tree_config);
        EXPECT_EQ(tree.Fit(data).code(), StatusCode::kInvalidArgument)
            << "tree " << bad;

        RandomForestConfig forest_config;
        forest_config.num_trees = 3;
        forest_config.tree.layout = layout;
        RandomForest forest(forest_config);
        EXPECT_EQ(forest.Fit(data).code(), StatusCode::kInvalidArgument)
            << "forest " << bad;

        GbdtConfig gbdt_config;
        gbdt_config.num_rounds = 2;
        gbdt_config.layout = layout;
        GbdtModel gbdt(gbdt_config);
        EXPECT_EQ(gbdt.Fit(data).code(), StatusCode::kInvalidArgument)
            << "gbdt " << bad;
      }
    }
  }
}

TEST(NonFiniteFeatureTest, CrossValidateRecordsFailedFolds) {
  Dataset data = WithValue(std::numeric_limits<double>::quiet_NaN(),
                           Task::kClassification);
  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  Rng rng(5);
  FoldSet folds = RandomKFold().Build(data, all, 4, &rng).value();
  auto factory = [](size_t) -> std::unique_ptr<Model> {
    RandomForestConfig config;
    config.num_trees = 3;
    return std::make_unique<RandomForest>(config);
  };
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, factory, CvOptions{}).value();
  // Row 17 trains in every fold but the one that validates it.
  EXPECT_EQ(outcome.failed_folds, 3u);
  size_t failed = 0, scored = 0;
  for (const FoldOutcome& fold : outcome.folds) {
    failed += fold.status == FoldStatus::kFailed;
    scored += fold.status == FoldStatus::kScored;
  }
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(scored, 1u);
  EXPECT_EQ(outcome.fold_scores.size(), 1u);
}

}  // namespace
}  // namespace bhpo
