// Lock for tree training on views, bootstraps, tied values and large fits:
// each DecisionTree, RandomForest or GBDT fit here must reproduce a
// recorded FNV-1a digest of its predictions and serialized text
// (tests/ml/tree_digest.h) — every split feature, threshold and leaf
// payload at full precision. The constants were recorded while a second,
// comparator-sort reference builder grew the same trees, so each is that
// reference's own model.
//
// Tied rows come in one order: (value, fit-local id). sorted_columns_test.cc
// checks each node's order against an exact sort; these digests check the
// trees grown from it. Fold scores must also not depend on how a CV pool
// of 1 or 8 threads schedules the folds.

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
#include "tests/ml/tree_digest.h"

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

// Digest of a fitted model: its predictions on every row of `data`, then
// its serialized text.
template <typename M>
uint64_t Digest(const M& model, const Dataset& data) {
  Fnv1a h;
  HashPredictions(model, data, &h);
  h.Text(Serialized(model));
  return h.value();
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

void ExpectTreeDigest(const DatasetView& view,
                      const DecisionTreeConfig& config, const char* label,
                      uint64_t digest) {
  DecisionTree tree(config);
  ASSERT_TRUE(tree.Fit(view).ok()) << label;
  EXPECT_EQ(Hex(Digest(tree, view.parent())), Hex(digest)) << label;
}

TEST(TreeLayoutBitExactTest, ClassificationTreesMatchOnViews) {
  Dataset data = Blobs(150, 8, 21);
  DecisionTreeConfig config;
  config.max_depth = 6;

  ExpectTreeDigest(DatasetView(data), config, "full", 0x20ab34923fe68d4cULL);

  std::vector<size_t> strided;
  for (size_t i = 0; i < data.n(); i += 3) strided.push_back(i);
  ExpectTreeDigest(DatasetView(data, strided), config, "strided",
                   0x893f877d770effe6ULL);

  // Bootstrap bag: duplicates force tied feature values inside the sort.
  Rng rng(5);
  std::vector<size_t> bag(data.n());
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  ExpectTreeDigest(DatasetView(data, bag), config, "bootstrap",
                   0xd271af38ffa01323ULL);
}

TEST(TreeLayoutBitExactTest, RegressionTreesMatch) {
  Dataset data = Regression(120, 6, 22);
  DecisionTreeConfig config;
  config.max_depth = 5;
  config.min_samples_leaf = 2;
  ExpectTreeDigest(DatasetView(data), config, "regression-full",
                   0x6a17384c52ffb88bULL);

  std::vector<size_t> half;
  for (size_t i = 0; i < data.n(); i += 2) half.push_back(i);
  ExpectTreeDigest(DatasetView(data, half), config, "regression-half",
                   0x6952f99cb164dc67ULL);
}

TEST(TreeLayoutBitExactTest, RandomFeatureSubsetsDrawTheSameRngStream) {
  // max_features > 0 shuffles candidate features per node from the tree's
  // own RNG stream.
  Dataset data = Blobs(100, 10, 23);
  DecisionTreeConfig config;
  config.max_features = 3;
  config.seed = 77;
  ExpectTreeDigest(DatasetView(data), config, "max-features",
                   0xafe52b3788ad35e0ULL);
}

TEST(TreeLayoutBitExactTest, TinyShapes) {
  Dataset data = Blobs(40, 5, 24);
  DecisionTreeConfig config;
  ExpectTreeDigest(DatasetView(data, {7}), config, "single-row",
                   0xf19777b29a24af33ULL);
  ExpectTreeDigest(DatasetView(data, {7, 7, 7}), config, "constant-rows",
                   0xf19777b29a24af33ULL);
  ExpectTreeDigest(DatasetView(data, {3, 19}), config, "two-rows",
                   0x2bbb4fdc4d57f7b2ULL);
}

TEST(TreeLayoutBitExactTest, RandomForestPredictionsMatch) {
  Dataset data = Blobs(120, 7, 25);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 3;
  config.tree.max_depth = 5;
  RandomForest forest(config);
  ASSERT_TRUE(forest.Fit(data).ok());
  EXPECT_EQ(Hex(Digest(forest, data)), Hex(0x171211c52be182a9ULL));
}

void ExpectGbdtDigest(const Dataset& data, const GbdtConfig& config,
                      const char* label, uint64_t digest) {
  GbdtModel model(config);
  ASSERT_TRUE(model.Fit(data).ok()) << label;
  Fnv1a h;
  h.Double(model.final_loss());
  h.U64(Digest(model, data));
  EXPECT_EQ(Hex(h.value()), Hex(digest)) << label;
}

TEST(TreeLayoutBitExactTest, GbdtClassificationMatches) {
  GbdtConfig config;
  config.num_rounds = 6;
  config.subsample = 0.7;  // Exercises the per-round subset gather.
  config.seed = 9;
  ExpectGbdtDigest(Blobs(100, 6, 26), config, "gbdt-cls",
                   0x2e01851a8af0df4cULL);
}

TEST(TreeLayoutBitExactTest, GbdtRegressionMatches) {
  GbdtConfig config;
  config.num_rounds = 8;
  config.seed = 10;
  ExpectGbdtDigest(Regression(90, 5, 27), config, "gbdt-reg",
                   0xae454e92b110556aULL);
}

// ---------------------------------------------------------------------------
// Cross-validation at pool sizes 1 and 8: the fold scores a bandit consumes
// must not depend on how folds are scheduled across threads.
// ---------------------------------------------------------------------------

CvOutcome RunCv(const Dataset& data, size_t threads, bool gbdt) {
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
      config.seed = 100 + fold;
      return std::make_unique<GbdtModel>(config);
    }
    DecisionTreeConfig config;
    config.max_depth = 6;
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
  for (bool gbdt : {false, true}) {
    CvOutcome serial = RunCv(data, 1, gbdt);
    EXPECT_EQ(serial.failed_folds, 0u);
    ExpectSameOutcome(serial, RunCv(data, 1, gbdt), gbdt ? "gbdt" : "tree");
    ExpectSameOutcome(serial, RunCv(data, 8, gbdt), "pool-8-vs-serial");
  }
}

// ---------------------------------------------------------------------------
// Walk-or-sort, bagging and boosting shapes.
// ---------------------------------------------------------------------------

void ExpectForestDigest(const Dataset& data,
                        const RandomForestConfig& config, const char* label,
                        uint64_t digest) {
  RandomForest forest(config);
  ASSERT_TRUE(forest.Fit(data).ok()) << label;
  EXPECT_EQ(Hex(Digest(forest, data)), Hex(digest)) << label;
}

TEST(TreeLayoutBitExactTest, LargeFitWalksAtTheRootAndSortsDeepNodes) {
  // A node walks the presorted order when 6 * m * ceil(log2 m) > n. At
  // n = 3000 the root (m = n) walks, nodes of 71 rows or fewer sort packed
  // keys, and depth 12 reaches nodes of a handful of rows.
  DecisionTreeConfig config;
  config.max_depth = 12;
  ExpectTreeDigest(DatasetView(Blobs(3000, 10, 34)), config,
                   "large-classification", 0x8210a7a87f06474eULL);
  config.max_features = 4;
  config.seed = 8;
  ExpectTreeDigest(DatasetView(Regression(2000, 8, 35)), config,
                   "large-regression", 0xf42df6740ed5e083ULL);
}

TEST(TreeLayoutBitExactTest, RandomForestWithoutBootstrapMatches) {
  RandomForestConfig config;
  config.num_trees = 6;
  config.bootstrap = false;
  config.seed = 11;
  config.tree.max_depth = 6;
  ExpectForestDigest(Blobs(160, 8, 36), config, "no-bootstrap",
                     0x41833cbb6cce4891ULL);
  ExpectForestDigest(Regression(150, 6, 37), config, "no-bootstrap-regression",
                     0x0f8d6f9dd8db6960ULL);
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
  ExpectGbdtDigest(data, config, "gbdt-4-class-subsampled",
                   0xd118f86efde71a55ULL);
}

// ---------------------------------------------------------------------------
// Tied values between distinct rows.
// ---------------------------------------------------------------------------

TEST(TreeLayoutBitExactTest, TiedClassificationMatchesReference) {
  Dataset data = TiedData(300, 6, 4, Task::kClassification, 39);
  DecisionTreeConfig config;
  config.max_depth = 8;
  ExpectTreeDigest(DatasetView(data), config, "tied-full",
                   0xc3f35f75a31ef3acULL);

  Rng rng(40);
  std::vector<size_t> bag(data.n());
  for (size_t& idx : bag) idx = rng.UniformIndex(data.n());
  ExpectTreeDigest(DatasetView(data, bag), config, "tied-bootstrap",
                   0x6ad0309decca9707ULL);

  config.max_features = 2;
  config.seed = 5;
  ExpectTreeDigest(DatasetView(data), config, "tied-max-features",
                   0x8d5b4805847d63c9ULL);
}

TEST(TreeLayoutBitExactTest, TiedRandomForestMatchesReference) {
  RandomForestConfig config;
  config.num_trees = 12;
  config.seed = 4;
  config.tree.max_depth = 7;
  Dataset data = TiedData(250, 9, 3, Task::kClassification, 41);
  ExpectForestDigest(data, config, "tied-forest", 0xde71ba5f2d70eef9ULL);
  config.bootstrap = false;
  ExpectForestDigest(data, config, "tied-forest-no-bootstrap",
                     0xb87fd68954bbb6c1ULL);
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
