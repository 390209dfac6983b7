// SortedColumns: the presorted per-fit index every tree of an ensemble fit
// trains on, checked against an exact sort on both of its build paths (its
// own sort and the walk of the parent dataset's order); NodeOrder, which
// puts a node's rows in feature order from it, checked the same way; and
// the non-finite-feature rejection that guards both (NaN has no place in a
// strict weak ordering, so sorting over it would be undefined behaviour).

#include "ml/sorted_columns.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cv/cross_validate.h"
#include "cv/kfold.h"
#include "data/split.h"
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
// Build against an exact oracle: per feature, std::sort of (value,
// fit-local id) pairs over the view's rows, dense ranks where the value
// changes, and the view's values bit for bit. The views cover both build
// paths: a fit small next to its parent sorts its own columns, a larger one
// walks the parent dataset's FeatureOrder.
// ---------------------------------------------------------------------------

// 600 rows, 3 imbalanced classes, six kinds of feature: tied integers
// 0..4 (two), continuous Gaussians (two), integers in {-1, 0, 1} whose
// zeros carry a random sign, and a nearly constant feature.
Dataset MixedClassification(uint64_t seed) {
  constexpr size_t kRows = 600;
  Rng rng(seed);
  Matrix x(kRows, 6);
  std::vector<int> labels(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    x(i, 0) = static_cast<double>(rng.UniformIndex(5));
    x(i, 1) = rng.Gaussian();
    x(i, 2) = static_cast<double>(rng.UniformIndex(5));
    double sign = rng.Bernoulli(0.5) ? -1.0 : 1.0;
    x(i, 3) = sign * static_cast<double>(rng.UniformIndex(3) == 0);
    x(i, 4) = rng.Bernoulli(0.05) ? 1.0 : 0.0;
    x(i, 5) = rng.Gaussian(3.0, 10.0);
    labels[i] = rng.Bernoulli(0.6) ? 0 : (rng.Bernoulli(0.7) ? 1 : 2);
  }
  return Dataset::Classification(std::move(x), std::move(labels), 3).value();
}

void ExpectMatchesOracle(const DatasetView& view, const SortedColumns& index) {
  size_t n = view.n();
  ASSERT_EQ(index.rows(), n);
  ASSERT_EQ(index.cols(), view.num_features());
  std::vector<std::pair<double, uint32_t>> keyed(n);
  std::vector<double> column(n);
  for (size_t f = 0; f < index.cols(); ++f) {
    for (size_t i = 0; i < n; ++i) {
      column[i] = view.feature(i, f);
      keyed[i] = {column[i], static_cast<uint32_t>(i)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<uint32_t> order(n), rank(n);
    uint32_t dense = 0;
    for (size_t p = 0; p < n; ++p) {
      if (p > 0 && keyed[p].first != keyed[p - 1].first) ++dense;
      order[p] = keyed[p].second;
      rank[keyed[p].second] = dense;
    }
    EXPECT_EQ(std::vector<uint32_t>(index.Order(f), index.Order(f) + n),
              order)
        << "feature " << f;
    EXPECT_EQ(std::vector<uint32_t>(index.Rank(f), index.Rank(f) + n), rank)
        << "feature " << f;
    EXPECT_EQ(std::memcmp(index.Column(f), column.data(), n * sizeof(double)),
              0)
        << "feature " << f;
  }
}

void ExpectBuildMatchesOracle(const DatasetView& view) {
  Result<SortedColumns> index = SortedColumns::Build(view);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectMatchesOracle(view, index.value());
}

// Fit sizes over a 600-row parent: 3 n ceil(log2 n) > 600 first holds at
// n = 34, so 8, 20 and 33 sort and the rest walk; 900 only fits a
// bootstrap.
const size_t kFitSizes[] = {8, 20, 33, 34, 110, 480, 600, 900};

TEST(SortedColumnsOracleTest, FoldComplementStratifiedAndBootstrapViews) {
  Dataset data = MixedClassification(11);
  Rng rng(12);
  size_t sorted = 0, walked = 0;
  for (size_t m : kFitSizes) {
    SCOPED_TRACE(m);
    if (SortedColumns::FromParentOrder(m, data.n())) {
      ++walked;
    } else {
      ++sorted;
    }
    if (m <= data.n()) {
      // Ascending distinct rows, the shape of a fold complement or a rung
      // subset carried forward.
      std::vector<size_t> rows = rng.SampleWithoutReplacement(data.n(), m);
      std::sort(rows.begin(), rows.end());
      ExpectBuildMatchesOracle(DatasetView(data, rows));
      // Grouped by class, so fit-local ids do not ascend with parent ids.
      ExpectBuildMatchesOracle(
          DatasetView(data, SampleStratified(DatasetView(data), m, &rng)));
    }
    // A bootstrap bag: repeated rows are distinct fit-local ids.
    std::vector<size_t> bag(m);
    for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
    ExpectBuildMatchesOracle(DatasetView(data, bag));
  }
  EXPECT_EQ(sorted, 3u);
  EXPECT_EQ(walked, 5u);

  // A fold's training side in ascending order, as CrossValidate hands it
  // to the model, and a bootstrap of it.
  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  FoldSet folds = RandomKFold().Build(data, all, 5, &rng).value();
  std::vector<size_t> complement = folds.ComplementOf(2);
  std::sort(complement.begin(), complement.end());
  DatasetView fold(data, complement);
  ExpectBuildMatchesOracle(fold);
  std::vector<size_t> fold_bag(fold.n());
  for (size_t& idx : fold_bag) idx = rng.UniformIndex(fold.n());
  ExpectBuildMatchesOracle(fold.ViewOf(fold_bag));
  ExpectBuildMatchesOracle(DatasetView(data));
}

TEST(SortedColumnsOracleTest, SignedZerosTieAndKeepTheirBits) {
  // Feature 3 holds -0.0 and +0.0 in about equal numbers: they compare
  // equal, so they tie (by fit-local id) and share a rank, while the
  // column keeps each value's sign bit.
  Dataset data = MixedClassification(13);
  size_t negative_zeros = 0;
  for (size_t i = 0; i < data.n(); ++i) {
    double v = data.features()(i, 3);
    negative_zeros += v == 0.0 && std::signbit(v);
  }
  ASSERT_GT(negative_zeros, 50u);
  Rng rng(14);
  for (size_t m : kFitSizes) {
    SCOPED_TRACE(m);
    std::vector<size_t> bag(m);
    for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
    ExpectBuildMatchesOracle(DatasetView(data, bag));
  }
}

// A parent with non-finite values in four rows: NaN in feature 5 of rows
// 5, 17 and 599 and in feature 0 of row 300, +Inf in feature 1 of row 17
// and -Inf in feature 5 of row 300.
const size_t kNonFiniteRows[] = {5, 17, 300, 599};

Dataset WithNonFiniteRows() {
  Dataset clean = MixedClassification(15);
  Matrix x = clean.features();
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  x(5, 5) = nan;
  x(17, 5) = nan;
  x(599, 5) = nan;
  x(300, 0) = nan;
  x(17, 1) = inf;
  x(300, 5) = -inf;
  return Dataset::Classification(std::move(x), clean.labels(), 3).value();
}

TEST(SortedColumnsOracleTest, ParentNonFiniteOnlyOutsideTheViewStillFits) {
  Dataset data = WithNonFiniteRows();
  Rng rng(16);
  for (size_t m : kFitSizes) {
    SCOPED_TRACE(m);
    std::vector<size_t> bag;
    while (bag.size() < m) {
      size_t r = rng.UniformIndex(data.n());
      if (std::count(std::begin(kNonFiniteRows), std::end(kNonFiniteRows),
                     r) == 0) {
        bag.push_back(r);
      }
    }
    ExpectBuildMatchesOracle(DatasetView(data, bag));
  }
  // The parent order still lists every row: -Inf first, NaN rows last in
  // row order.
  const uint32_t* order = data.feature_order().Order(5);
  EXPECT_EQ(order[0], 300u);
  EXPECT_EQ(std::vector<uint32_t>(order + data.n() - 3, order + data.n()),
            (std::vector<uint32_t>{5, 17, 599}));
}

TEST(SortedColumnsOracleTest, ViewWithNonFiniteValueIsRejected) {
  Dataset data = WithNonFiniteRows();
  Rng rng(17);
  for (size_t m : kFitSizes) {
    for (size_t bad : kNonFiniteRows) {
      SCOPED_TRACE(m);
      std::vector<size_t> bag(m);
      for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
      bag[rng.UniformIndex(m)] = bad;
      EXPECT_EQ(SortedColumns::Build(DatasetView(data, bag)).status().code(),
                StatusCode::kInvalidArgument)
          << "row " << bad;
    }
  }
}

TEST(SortedColumnsOracleTest, CopiesOfADatasetShareOneOrder) {
  Dataset data = MixedClassification(18);
  Dataset copy = data;
  Dataset assigned;
  assigned = copy;
  EXPECT_EQ(&data.feature_order(), &copy.feature_order());
  EXPECT_EQ(&data.feature_order(), &assigned.feature_order());
  // Datasets with other features hold their own.
  Dataset standardized = data.Standardized();
  EXPECT_NE(&standardized.feature_order(), &data.feature_order());
  Dataset subset = data.Subset({3, 1, 4, 1, 5});
  EXPECT_NE(&subset.feature_order(), &data.feature_order());
  EXPECT_EQ(subset.feature_order().rows(), 5u);

  std::vector<size_t> rows(480);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i + 60;
  ExpectBuildMatchesOracle(DatasetView(copy, rows));
  ExpectBuildMatchesOracle(DatasetView(standardized, rows));
}

// Fold fits on a pool reach a fresh dataset's order together: each fold's
// index must be the one a serial build gives, at pool sizes 1 and 8.
TEST(ParentOrderConcurrencyTest, PoolFoldsBuildFromOneFreshOrder) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    Dataset data = MixedClassification(19);
    Rng rng(20);
    std::vector<size_t> all(data.n());
    for (size_t i = 0; i < data.n(); ++i) all[i] = i;
    FoldSet folds = RandomKFold().Build(data, all, 8, &rng).value();
    std::vector<DatasetView> views;
    for (size_t f = 0; f < folds.num_folds(); ++f) {
      views.emplace_back(data, folds.ComplementOf(f));
      std::vector<size_t> bag(views.back().n());
      for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
      views.emplace_back(data, std::move(bag));
    }
    std::vector<Result<SortedColumns>> built(
        views.size(), Status::Internal("not built"));
    ThreadPool pool(threads);
    pool.ParallelFor(views.size(), [&](size_t v) {
      built[v] = SortedColumns::Build(views[v]);
    });
    for (size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(v);
      ASSERT_TRUE(SortedColumns::FromParentOrder(views[v].n(), data.n()));
      ASSERT_TRUE(built[v].ok()) << built[v].status().ToString();
      ExpectMatchesOracle(views[v], built[v].value());
    }
  }
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
  NodeOrder order(&index, keys.data(), counts.data());
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
      order.SortedBy(f, ids.data(), m, sorted.data());
      EXPECT_EQ(std::vector<uint32_t>(sorted.begin(), sorted.begin() + m),
                OracleOrder(view, f, ids))
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
// PartitionBySide against the same oracle. A tree that scans every feature
// orders each feature once at the root and then stably partitions every
// feature's order at each split; each child's slice must then be exactly
// what NodeOrder::SortedBy (walk or sort) and the exact sort give for the
// child's ids. The suite name puts it under the tree-lock filters of the
// sanitizer passes.
// ---------------------------------------------------------------------------

// Orders the node `ids` by every feature of `view`, splits them on feature
// `split` at `threshold` (left when value <= threshold), partitions every
// feature's order and checks both children's slices. Returns the left
// child's size.
size_t ExpectChildrenKeepTheirOrder(const DatasetView& view,
                                    const std::vector<uint32_t>& ids,
                                    size_t split, double threshold) {
  SortedColumns index = SortedColumns::Build(view).value();
  size_t n_fit = index.rows(), d = index.cols(), m = ids.size();
  std::vector<uint64_t> keys(m);
  std::vector<uint32_t> counts(n_fit, 0), kept(d * m + 3), spill(m);
  NodeOrder order(&index, keys.data(), counts.data());
  order.BeginNode(ids.data(), m);
  for (size_t f = 0; f < d; ++f) {
    order.SortedBy(f, ids.data(), m, kept.data() + f * m);
  }
  order.EndNode(ids.data(), m);

  std::vector<uint8_t> side(n_fit, 0);
  std::vector<uint32_t> children[2];
  for (uint32_t id : ids) {
    side[id] = !(view.feature(id, split) <= threshold);
    children[side[id]].push_back(id);
  }
  for (size_t f = 0; f < d; ++f) {
    SCOPED_TRACE(f);
    uint32_t* slice = kept.data() + f * m;
    EXPECT_EQ(PartitionBySide(slice, m, side.data(), spill.data()),
              children[0].size());
    const uint32_t* begin = slice;
    for (const std::vector<uint32_t>& child : children) {
      std::vector<uint32_t> got(begin, begin + child.size());
      begin += child.size();
      std::vector<uint32_t> walked(child.size() + 3);
      order.BeginNode(child.data(), child.size());
      order.SortedBy(f, child.data(), child.size(), walked.data());
      order.EndNode(child.data(), child.size());
      walked.resize(child.size());
      EXPECT_EQ(got, walked) << "child of " << child.size() << " ids";
      EXPECT_EQ(got, OracleOrder(view, f, child));
    }
  }
  EXPECT_EQ(std::count(counts.begin(), counts.end(), 0u),
            static_cast<ptrdiff_t>(n_fit));
  return children[0].size();
}

TEST(TreeBitExactPartitionTest, TiedFeaturesWithRepeatedIds) {
  // Integer features on a bootstrap view: ties within and across parent
  // rows, and a node that holds some ids several times.
  Dataset data = TiedClassification(300, 4, 11);
  Rng rng(12);
  std::vector<size_t> bag(400);
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  DatasetView view(data, bag);
  std::vector<uint32_t> ids(400);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.UniformIndex(view.n()));
  }
  std::fill(ids.begin(), ids.begin() + 9, ids[9]);
  rng.Shuffle(&ids);
  // Every threshold between the integer levels of feature 2.
  for (double threshold : {0.5, 1.5, 2.5, 3.5}) {
    SCOPED_TRACE(threshold);
    ExpectChildrenKeepTheirOrder(view, ids, 2, threshold);
  }
}

TEST(TreeBitExactPartitionTest, SubsampledIdsOnBothSidesOfTheCutOff) {
  // A GBDT-style subsample without repeats, at node sizes that sort and
  // that walk, split unevenly so one child walks and the other sorts.
  Dataset data = TiedClassification(500, 3, 13);
  DatasetView view(data);
  Rng rng(14);
  size_t walked = 0, key_sorted = 0;
  for (size_t m : {6u, 16u, 60u, 250u}) {
    SCOPED_TRACE(m);
    std::vector<size_t> sample = rng.SampleWithoutReplacement(data.n(), m);
    std::vector<uint32_t> ids(sample.begin(), sample.end());
    (NodeOrder::Walks(m, data.n()) ? walked : key_sorted) += 1;
    size_t n_left = ExpectChildrenKeepTheirOrder(view, ids, 0, 0.5);
    EXPECT_GT(n_left, 0u);
    EXPECT_LT(n_left, m);
  }
  EXPECT_EQ(walked, 2u);
  EXPECT_EQ(key_sorted, 2u);
}

TEST(TreeBitExactPartitionTest, SplitSendingOneRowRight) {
  // Continuous features: the largest value of feature 1 is unique, so a
  // threshold just below it sends exactly one row right.
  Dataset data = TiedClassification(200, 3, 15);
  Matrix x = data.features();
  Rng rng(16);
  for (double& v : x.data()) v += rng.Uniform();
  Dataset continuous =
      Dataset::Classification(std::move(x), data.labels(), 3).value();
  DatasetView view(continuous);
  std::vector<double> column(view.n());
  for (size_t i = 0; i < view.n(); ++i) column[i] = view.feature(i, 1);
  std::vector<double> sorted_column = column;
  std::sort(sorted_column.begin(), sorted_column.end());
  double threshold = (sorted_column[view.n() - 2] + sorted_column.back()) / 2;
  std::vector<uint32_t> ids(view.n());
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(&ids);
  EXPECT_EQ(ExpectChildrenKeepTheirOrder(view, ids, 1, threshold),
            view.n() - 1);
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
