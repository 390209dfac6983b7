// Bit-exactness lockdown for tree training on the shared presorted index:
// a DecisionTree, RandomForest or GBDT fit through the default layout
// (SortedColumns, walk-or-sort node order) must produce the *same tree* —
// identical node structure, thresholds, leaf payloads, and therefore
// identical predictions — as the row-major reference, on any view and at
// any CV pool size. Equality is exact (EXPECT_EQ on doubles, string
// equality on serialized text), never approximate.
//
// The one designed difference is the order of tied values: the index
// orders ties by fit-local row id, the reference by introsort. A
// classification split never sees it (it depends only on class counts at
// value boundaries), so tied classification data must still match the
// reference; a regression split on ties between distinct rows can, so
// there the contract is determinism in fit-local id order instead.

#include <numeric>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cv/cross_validate.h"
#include "cv/kfold.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"

namespace bhpo {
namespace {

Dataset Blobs(size_t n, size_t d, uint64_t seed) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.num_classes = 3;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

Dataset Regression(size_t n, size_t d, uint64_t seed) {
  RegressionSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.seed = seed;
  return MakeRegression(spec).value().Standardized();
}

// Serialized text captures every split feature, threshold and leaf payload
// at full precision: string equality == structural tree identity.
std::string Serialized(const DecisionTree& tree) {
  std::ostringstream out;
  BHPO_CHECK(SaveDecisionTree(tree, out).ok());
  return out.str();
}

std::string Serialized(const RandomForest& forest) {
  std::ostringstream out;
  BHPO_CHECK(SaveRandomForest(forest, out).ok());
  return out.str();
}

std::string Serialized(const GbdtModel& model) {
  std::ostringstream out;
  BHPO_CHECK(SaveGbdt(model, out).ok());
  return out.str();
}

// Features drawn from {0, ..., levels - 1}: most values are shared by many
// distinct rows. Classification labels follow a noisy rule over the first
// two features; regression targets are continuous, so the order in which a
// split scan accumulates tied rows is visible in the low bits.
Dataset TiedData(size_t n, size_t d, size_t levels, Task task, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) {
      x(i, f) = static_cast<double>(rng.UniformIndex(levels));
    }
  }
  if (task == Task::kClassification) {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) {
      int rule = x(i, 0) + x(i, 1) > static_cast<double>(levels) ? 1 : 0;
      labels[i] = rng.Uniform() < 0.2 ? static_cast<int>(rng.UniformIndex(3))
                                      : rule + (x(i, 2) > 1.0 ? 1 : 0);
    }
    return Dataset::Classification(std::move(x), std::move(labels), 3)
        .value();
  }
  std::vector<double> targets(n);
  for (size_t i = 0; i < n; ++i) {
    targets[i] = 0.7 * x(i, 0) - 0.3 * x(i, 1) + rng.Uniform(-1.0, 1.0);
  }
  return Dataset::Regression(std::move(x), std::move(targets)).value();
}

void ExpectIdenticalTrees(const DatasetView& view, DecisionTreeConfig config,
                          const char* label) {
  config.layout = SplitLayout::kRowMajor;
  DecisionTree row_major(config);
  config.layout = SplitLayout::kColBlocked;
  DecisionTree blocked(config);
  ASSERT_TRUE(row_major.Fit(view).ok()) << label;
  ASSERT_TRUE(blocked.Fit(view).ok()) << label;
  EXPECT_EQ(row_major.node_count(), blocked.node_count()) << label;
  EXPECT_EQ(row_major.depth(), blocked.depth()) << label;
  EXPECT_EQ(Serialized(row_major), Serialized(blocked)) << label;
}

TEST(TreeLayoutBitExactTest, ClassificationTreesMatchOnViews) {
  Dataset data = Blobs(150, 8, 21);
  DecisionTreeConfig config;
  config.max_depth = 6;

  ExpectIdenticalTrees(DatasetView(data), config, "full");

  std::vector<size_t> strided;
  for (size_t i = 0; i < data.n(); i += 3) strided.push_back(i);
  ExpectIdenticalTrees(DatasetView(data, strided), config, "strided");

  // Bootstrap bag: duplicates force tied feature values inside the sort.
  Rng rng(5);
  std::vector<size_t> bag(data.n());
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  ExpectIdenticalTrees(DatasetView(data, bag), config, "bootstrap");
}

TEST(TreeLayoutBitExactTest, RegressionTreesMatch) {
  Dataset data = Regression(120, 6, 22);
  DecisionTreeConfig config;
  config.max_depth = 5;
  config.min_samples_leaf = 2;
  ExpectIdenticalTrees(DatasetView(data), config, "regression-full");

  std::vector<size_t> half;
  for (size_t i = 0; i < data.n(); i += 2) half.push_back(i);
  ExpectIdenticalTrees(DatasetView(data, half), config, "regression-half");
}

TEST(TreeLayoutBitExactTest, RandomFeatureSubsetsDrawTheSameRngStream) {
  // max_features > 0 shuffles candidate features per node; both layouts
  // must consume the per-node RNG identically or trees diverge.
  Dataset data = Blobs(100, 10, 23);
  DecisionTreeConfig config;
  config.max_features = 3;
  config.seed = 77;
  ExpectIdenticalTrees(DatasetView(data), config, "max-features");
}

TEST(TreeLayoutBitExactTest, TinyShapes) {
  Dataset data = Blobs(40, 5, 24);
  DecisionTreeConfig config;
  ExpectIdenticalTrees(DatasetView(data, {7}), config, "single-row");
  ExpectIdenticalTrees(DatasetView(data, {7, 7, 7}), config, "constant-rows");
  ExpectIdenticalTrees(DatasetView(data, {3, 19}), config, "two-rows");
}

TEST(TreeLayoutBitExactTest, RandomForestPredictionsMatch) {
  Dataset data = Blobs(120, 7, 25);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 3;
  config.tree.max_depth = 5;

  config.tree.layout = SplitLayout::kRowMajor;
  RandomForest row_major(config);
  config.tree.layout = SplitLayout::kColBlocked;
  RandomForest blocked(config);
  ASSERT_TRUE(row_major.Fit(data).ok());
  ASSERT_TRUE(blocked.Fit(data).ok());

  EXPECT_EQ(row_major.PredictLabels(data.features()),
            blocked.PredictLabels(data.features()));
  Matrix p1 = row_major.PredictProba(data.features());
  Matrix p2 = blocked.PredictProba(data.features());
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.data()[i], p2.data()[i]) << "proba " << i;
  }
}

void ExpectIdenticalGbdt(const Dataset& data, GbdtConfig config,
                         const char* label) {
  config.layout = SplitLayout::kRowMajor;
  GbdtModel row_major(config);
  config.layout = SplitLayout::kColBlocked;
  GbdtModel blocked(config);
  ASSERT_TRUE(row_major.Fit(data).ok()) << label;
  ASSERT_TRUE(blocked.Fit(data).ok()) << label;
  EXPECT_EQ(Serialized(row_major), Serialized(blocked)) << label;
  EXPECT_EQ(row_major.final_loss(), blocked.final_loss()) << label;
  if (data.is_classification()) {
    EXPECT_EQ(row_major.PredictLabels(data.features()),
              blocked.PredictLabels(data.features()))
        << label;
  } else {
    std::vector<double> v1 = row_major.PredictValues(data.features());
    std::vector<double> v2 = blocked.PredictValues(data.features());
    ASSERT_EQ(v1.size(), v2.size()) << label;
    for (size_t i = 0; i < v1.size(); ++i) {
      EXPECT_EQ(v1[i], v2[i]) << label << " row " << i;
    }
  }
}

TEST(TreeLayoutBitExactTest, GbdtClassificationMatches) {
  GbdtConfig config;
  config.num_rounds = 6;
  config.subsample = 0.7;  // Exercises the per-round subset gather.
  config.seed = 9;
  ExpectIdenticalGbdt(Blobs(100, 6, 26), config, "gbdt-cls");
}

TEST(TreeLayoutBitExactTest, GbdtRegressionMatches) {
  GbdtConfig config;
  config.num_rounds = 8;
  config.seed = 10;
  ExpectIdenticalGbdt(Regression(90, 5, 27), config, "gbdt-reg");
}

// ---------------------------------------------------------------------------
// Layout transparency through cross-validation at pool sizes 1 and 8: the
// fold scores a bandit consumes must not depend on the training layout, no
// matter how folds are scheduled across threads.
// ---------------------------------------------------------------------------

CvOutcome RunCv(const Dataset& data, SplitLayout layout, size_t threads,
                bool gbdt) {
  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  Rng rng(1);
  StratifiedKFold builder;
  FoldSet folds = builder.Build(data, all, 5, &rng).value();

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  CvOptions options;
  options.pool = pool.get();

  auto factory = [&](size_t fold) -> std::unique_ptr<Model> {
    if (gbdt) {
      GbdtConfig config;
      config.num_rounds = 4;
      config.layout = layout;
      config.seed = 100 + fold;
      return std::make_unique<GbdtModel>(config);
    }
    DecisionTreeConfig config;
    config.max_depth = 6;
    config.layout = layout;
    config.seed = 100 + fold;
    return std::make_unique<DecisionTree>(config);
  };
  return CrossValidate(DatasetView(data), folds, factory, options).value();
}

void ExpectSameOutcome(const CvOutcome& a, const CvOutcome& b,
                       const char* label) {
  EXPECT_EQ(a.mean, b.mean) << label;
  EXPECT_EQ(a.stddev, b.stddev) << label;
  ASSERT_EQ(a.fold_scores.size(), b.fold_scores.size()) << label;
  for (size_t f = 0; f < a.fold_scores.size(); ++f) {
    EXPECT_EQ(a.fold_scores[f], b.fold_scores[f]) << label << " fold " << f;
  }
}

TEST(TreeLayoutBitExactTest, CvLayoutTransparentPool1And8) {
  Dataset data = Blobs(140, 6, 28);
  for (size_t threads : {1u, 8u}) {
    for (bool gbdt : {false, true}) {
      CvOutcome row_major = RunCv(data, SplitLayout::kRowMajor, threads, gbdt);
      CvOutcome blocked = RunCv(data, SplitLayout::kColBlocked, threads, gbdt);
      ExpectSameOutcome(row_major, blocked,
                        gbdt ? "gbdt" : "tree");
      // And the pool itself must be layout-and-schedule transparent.
      CvOutcome serial = RunCv(data, SplitLayout::kColBlocked, 1, gbdt);
      ExpectSameOutcome(blocked, serial, "pool-vs-serial");
    }
  }
}

// ---------------------------------------------------------------------------
// Walk-or-sort, bagging and boosting shapes.
// ---------------------------------------------------------------------------

void ExpectIdenticalForests(const Dataset& data, RandomForestConfig config,
                            const char* label) {
  config.tree.layout = SplitLayout::kRowMajor;
  RandomForest row_major(config);
  config.tree.layout = SplitLayout::kColBlocked;
  RandomForest blocked(config);
  ASSERT_TRUE(row_major.Fit(data).ok()) << label;
  ASSERT_TRUE(blocked.Fit(data).ok()) << label;
  EXPECT_EQ(Serialized(row_major), Serialized(blocked)) << label;
}

TEST(TreeLayoutBitExactTest, LargeFitWalksAtTheRootAndSortsDeepNodes) {
  // A node walks the presorted order when 2 * m * ceil(log2 m) > n. At
  // n = 3000 the root (m = n) walks, nodes below ~190 rows sort packed
  // keys, and depth 12 reaches nodes of a handful of rows.
  DecisionTreeConfig config;
  config.max_depth = 12;
  ExpectIdenticalTrees(DatasetView(Blobs(3000, 10, 34)), config,
                       "large-classification");
  config.max_features = 4;
  config.seed = 8;
  ExpectIdenticalTrees(DatasetView(Regression(2000, 8, 35)), config,
                       "large-regression");
}

TEST(TreeLayoutBitExactTest, RandomForestWithoutBootstrapMatches) {
  RandomForestConfig config;
  config.num_trees = 6;
  config.bootstrap = false;
  config.seed = 11;
  config.tree.max_depth = 6;
  ExpectIdenticalForests(Blobs(160, 8, 36), config, "no-bootstrap");
  ExpectIdenticalForests(Regression(150, 6, 37), config,
                         "no-bootstrap-regression");
}

TEST(TreeLayoutBitExactTest, MulticlassSubsampledGbdtMatches) {
  BlobsSpec spec;
  spec.n = 220;
  spec.num_features = 7;
  spec.num_classes = 4;
  spec.seed = 38;
  Dataset data = MakeBlobs(spec).value().Standardized();
  GbdtConfig config;
  config.num_rounds = 5;
  config.max_depth = 4;
  config.subsample = 0.5;
  config.seed = 12;
  ExpectIdenticalGbdt(data, config, "gbdt-4-class-subsampled");
}

// ---------------------------------------------------------------------------
// Tied values between distinct rows.
// ---------------------------------------------------------------------------

TEST(TreeLayoutBitExactTest, TiedClassificationMatchesReference) {
  Dataset data = TiedData(300, 6, 4, Task::kClassification, 39);
  DecisionTreeConfig config;
  config.max_depth = 8;
  ExpectIdenticalTrees(DatasetView(data), config, "tied-full");

  Rng rng(40);
  std::vector<size_t> bag(data.n());
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  ExpectIdenticalTrees(DatasetView(data, bag), config, "tied-bootstrap");

  config.max_features = 2;
  config.seed = 5;
  ExpectIdenticalTrees(DatasetView(data), config, "tied-max-features");
}

TEST(TreeLayoutBitExactTest, TiedRandomForestMatchesReference) {
  RandomForestConfig config;
  config.num_trees = 12;
  config.seed = 4;
  config.tree.max_depth = 7;
  Dataset data = TiedData(250, 9, 3, Task::kClassification, 41);
  ExpectIdenticalForests(data, config, "tied-forest");
  config.bootstrap = false;
  ExpectIdenticalForests(data, config, "tied-forest-no-bootstrap");
}

CvOutcome RunTiedRegressionCv(const Dataset& data, size_t threads,
                              bool forest) {
  std::vector<size_t> all(data.n());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(2);
  FoldSet folds = RandomKFold().Build(data, all, 5, &rng).value();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  CvOptions options;
  options.pool = pool.get();
  auto factory = [&](size_t fold) -> std::unique_ptr<Model> {
    if (forest) {
      RandomForestConfig config;
      config.num_trees = 6;
      config.seed = 200 + fold;
      config.tree.max_depth = 6;
      return std::make_unique<RandomForest>(config);
    }
    DecisionTreeConfig config;
    config.max_depth = 6;
    config.seed = 200 + fold;
    return std::make_unique<DecisionTree>(config);
  };
  return CrossValidate(DatasetView(data), folds, factory, options).value();
}

TEST(TreeLayoutBitExactTest, TiedRegressionIsDeterministic) {
  // Distinct rows share values here, so the split scan accumulates them in
  // fit-local id order. That order is fixed by the data alone: every fit,
  // every ensemble and every CV schedule must grow the same trees.
  Dataset data = TiedData(240, 5, 4, Task::kRegression, 42);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 7;
  DecisionTree first(tree_config);
  ASSERT_TRUE(first.Fit(data).ok());
  RandomForestConfig forest_config;
  forest_config.num_trees = 5;
  forest_config.seed = 6;
  RandomForest first_forest(forest_config);
  ASSERT_TRUE(first_forest.Fit(data).ok());
  GbdtConfig gbdt_config;
  gbdt_config.num_rounds = 4;
  gbdt_config.subsample = 0.6;
  gbdt_config.seed = 7;
  GbdtModel first_gbdt(gbdt_config);
  ASSERT_TRUE(first_gbdt.Fit(data).ok());

  for (int rep = 0; rep < 3; ++rep) {
    DecisionTree tree(tree_config);
    ASSERT_TRUE(tree.Fit(data).ok());
    EXPECT_EQ(Serialized(first), Serialized(tree)) << "tree rep " << rep;
    RandomForest forest(forest_config);
    ASSERT_TRUE(forest.Fit(data).ok());
    EXPECT_EQ(Serialized(first_forest), Serialized(forest))
        << "forest rep " << rep;
    GbdtModel gbdt(gbdt_config);
    ASSERT_TRUE(gbdt.Fit(data).ok());
    EXPECT_EQ(Serialized(first_gbdt), Serialized(gbdt)) << "gbdt rep " << rep;
  }

  for (bool forest : {false, true}) {
    CvOutcome serial = RunTiedRegressionCv(data, 1, forest);
    EXPECT_EQ(serial.failed_folds, 0u);
    ExpectSameOutcome(serial, RunTiedRegressionCv(data, 1, forest),
                      "tied-cv-repeat");
    ExpectSameOutcome(serial, RunTiedRegressionCv(data, 8, forest),
                      "tied-cv-pool-8");
  }
}

}  // namespace
}  // namespace bhpo
