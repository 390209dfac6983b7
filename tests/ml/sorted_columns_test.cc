// SortedColumns: the presorted per-fit index every tree of an ensemble fit
// trains on; NodeOrder, which puts a node's rows in feature order from it,
// checked against an exact sort; and the non-finite-feature rejection that
// guards both (NaN has no place in a strict weak ordering, so sorting over
// it would be undefined behaviour).

#include "ml/sorted_columns.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
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

// A dataset with no features is legal: the index keeps its row count, and
// every tree model fits it to single-leaf trees.
TEST(SortedColumnsTest, ZeroFeatureFitsGrowSingleLeaves) {
  std::vector<int> labels = {0, 1, 1, 0, 1, 1};
  Dataset cls =
      Dataset::Classification(Matrix(labels.size(), 0), labels, 2).value();
  Dataset reg = Dataset::Regression(Matrix(4, 0), {1.0, 2.0, 4.0, 5.0}).value();
  for (const Dataset* data : {&cls, &reg}) {
    SortedColumns index = SortedColumns::Build(DatasetView(*data)).value();
    EXPECT_EQ(index.rows(), data->n());
    EXPECT_EQ(index.cols(), 0u);

    DecisionTree tree;
    ASSERT_TRUE(tree.Fit(*data).ok());
    EXPECT_EQ(tree.node_count(), 1u);

    RandomForestConfig forest_config;
    forest_config.num_trees = 3;
    RandomForest forest(forest_config);
    ASSERT_TRUE(forest.Fit(*data).ok());
    EXPECT_EQ(forest.num_trees(), 3u);

    GbdtConfig gbdt_config;
    gbdt_config.num_rounds = 2;
    GbdtModel gbdt(gbdt_config);
    ASSERT_TRUE(gbdt.Fit(*data).ok());
    EXPECT_EQ(gbdt.rounds_fit(), 2);
  }
  // The single leaf holds the class frequencies and the target mean.
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(cls).ok());
  Matrix proba = tree.PredictProba(cls.features());
  EXPECT_EQ(proba(0, 0), 2.0 / 6.0);
  EXPECT_EQ(proba(0, 1), 4.0 / 6.0);
  ASSERT_TRUE(tree.Fit(reg).ok());
  EXPECT_EQ(tree.PredictValues(reg.features())[3], 3.0);
}

// ---------------------------------------------------------------------------
// NodeOrder against an exact oracle: std::sort of (value, fit-local id)
// pairs, each id repeated as often as it occurs in the node. The oracle
// fixes the order of tied rows too.
// ---------------------------------------------------------------------------

std::vector<uint32_t> OracleOrder(const DatasetView& view, size_t f,
                                  const std::vector<uint32_t>& ids) {
  std::vector<std::pair<double, uint32_t>> keyed;
  for (uint32_t id : ids) keyed.emplace_back(view.feature(id, f), id);
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> order;
  for (const auto& [value, id] : keyed) order.push_back(id);
  return order;
}

TEST(NodeOrderTest, MatchesExactSortOnBothSidesOfTheCutOff) {
  // A bootstrap view of tied integer features: distinct fit-local ids share
  // values both within a parent row's copies and across parent rows.
  Dataset data = TiedClassification(300, 4, 7);
  Rng rng(8);
  std::vector<size_t> bag(400);
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  DatasetView view(data, bag);
  SortedColumns index = SortedColumns::Build(view).value();
  size_t n_fit = index.rows();

  // 6 * m * ceil(log2 m) > 400 first holds at m = 17, so the sizes below
  // 17 sort keys and the rest walk; 400 and 900 hold more ids than a node
  // of a plain fit could.
  const size_t sizes[] = {1, 2, 3, 5, 9, 16, 17, 18, 40, 120, 400, 900};
  std::vector<uint32_t> sorted(900 + 3), counts(n_fit, 0);
  std::vector<uint64_t> keys(900);
  NodeOrder order(&index, sorted.data(), keys.data(), counts.data());
  size_t walked = 0, key_sorted = 0;
  for (size_t m : sizes) {
    SCOPED_TRACE(m);
    // Ids with repeats, in shuffled order; from m = 9 on one id occurs at
    // least 8 times, so a walk meets a multiplicity above 4.
    std::vector<uint32_t> ids(m);
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(rng.UniformIndex(n_fit));
    }
    if (m >= 9) std::fill(ids.begin(), ids.begin() + 7, ids[7]);
    rng.Shuffle(&ids);
    if (NodeOrder::Walks(m, n_fit)) {
      ++walked;
    } else {
      ++key_sorted;
    }

    order.BeginNode(ids.data(), m);
    for (size_t f = 0; f < index.cols(); ++f) {
      const uint32_t* got = order.SortedBy(f, ids.data(), m);
      EXPECT_EQ(std::vector<uint32_t>(got, got + m), OracleOrder(view, f, ids))
          << "feature " << f;
    }
    order.EndNode(ids.data(), m);
    EXPECT_EQ(std::count(counts.begin(), counts.end(), 0u),
              static_cast<ptrdiff_t>(n_fit))
        << "EndNode must clear the counts";
  }
  EXPECT_EQ(key_sorted, 6u);
  EXPECT_EQ(walked, 6u);
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
    for (Task task : {Task::kClassification, Task::kRegression}) {
      Dataset data = WithValue(bad, task);
      DecisionTree tree;
      EXPECT_EQ(tree.Fit(data).code(), StatusCode::kInvalidArgument)
          << "tree " << bad;

      RandomForestConfig forest_config;
      forest_config.num_trees = 3;
      RandomForest forest(forest_config);
      EXPECT_EQ(forest.Fit(data).code(), StatusCode::kInvalidArgument)
          << "forest " << bad;

      GbdtConfig gbdt_config;
      gbdt_config.num_rounds = 2;
      GbdtModel gbdt(gbdt_config);
      EXPECT_EQ(gbdt.Fit(data).code(), StatusCode::kInvalidArgument)
          << "gbdt " << bad;
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
