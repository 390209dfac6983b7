// Bit-exactness lock for tree training. Each case fits one DecisionTree,
// RandomForest or GbdtModel with fixed seeds and compares an FNV-1a digest
// of everything the fit produced — the serialized model text (every split
// feature, threshold and leaf payload at full precision) and the prediction
// bits on the training features and on a held-out batch — against a
// recorded constant.
//
// The constants pin the trees themselves: any change to the split scan's
// arithmetic, its candidate order or its tie-breaking, to the walk-or-sort
// node ordering or to the ensembles' bagging and boosting changes a digest.
// tree_layout_bitexact_test.cc pins more shapes the same way (views,
// bootstraps, tied values, large fits); sorted_columns_test.cc checks the
// node order itself against an exact sort.
//
// The cases cover binary, 6-class and 10-class classification and
// regression; min_samples_leaf 1 and 8; limited and unlimited depth;
// integer-valued features (many rows tied on one value); bootstrap on and
// off; GBDT subsample 1 and 0.5; 10, 7 and 1 features (the regression
// scan pairs features, and an odd last one with itself); standalone trees
// at max_features d (every node keeps each feature's order by partition)
// and d - 1 (nodes walk or sort); and the CASH benchmark's shape, 480 rows
// of the a9a stand-in at 80 features. At 480 rows the large nodes walk the
// presorted order and the small ones sort packed keys, so every fit that
// does not keep its orders takes both paths. The forest and GBDT cases are also fitted on pools of 1, 2
// and 8 workers and must hit the same digests. ctest also runs the suite
// with BHPO_SIMD=off.

#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/dataset_view.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "tests/ml/tree_digest.h"

namespace bhpo {
namespace {

enum class Kind { kTree, kForest, kGbdt };

constexpr size_t kFeatures = 10;

struct LockCase {
  const char* name;
  uint64_t digest;
  Kind kind;
  // 0 = regression.
  int num_classes;
  // Round features to integers, so many distinct rows share a value.
  bool tied = false;
  int min_samples_leaf = 1;
  // 0 = unlimited (trees and forests only; a GBDT needs a depth).
  int max_depth = 0;
  // Forest: bootstrap bags. GBDT: subsample 0.5 instead of 1.
  bool resample = false;
  // Feature columns of the generated data. An odd count leaves the
  // regression scan's last feature without a partner.
  size_t features = kFeatures;
  // Tree: candidate features per split (0 = all). Forest: trees.
  int max_features = 0;
  int num_trees = 6;
  // Train on the first 480 training rows of MakePaperDataset("a9a", 31,
  // 0.3) instead: the CASH benchmark's shape, 80 features. `features` and
  // `tied` do not apply.
  bool a9a = false;
};

constexpr size_t kRows = 480;

Dataset MakeData(int num_classes, bool tied, size_t features, uint64_t seed) {
  Dataset data;
  if (num_classes > 0) {
    BlobsSpec spec;
    spec.n = kRows;
    spec.num_features = features;
    spec.num_classes = num_classes;
    spec.label_noise = 0.1;
    spec.seed = seed;
    data = MakeBlobs(spec).value().Standardized();
  } else {
    RegressionSpec spec;
    spec.n = kRows;
    spec.num_features = features;
    spec.seed = seed;
    data = MakeRegression(spec).value().Standardized();
  }
  if (!tied) return data;
  // Standardized values times 2, rounded: about a dozen levels per feature.
  Matrix x = data.features();
  for (double& v : x.data()) v = std::round(2.0 * v);
  if (num_classes > 0) {
    return Dataset::Classification(std::move(x), data.labels(), num_classes)
        .value();
  }
  return Dataset::Regression(std::move(x), data.targets()).value();
}

// A null `pool` fits serially; forests and GBDTs take the pool otherwise.
uint64_t FitDigest(const LockCase& c, ThreadPool* pool = nullptr) {
  Dataset train, held_out;
  DatasetView view;
  if (c.a9a) {
    TrainTestSplit split = MakePaperDataset("a9a", 31, 0.3).value();
    train = std::move(split.train);
    held_out = std::move(split.test);
    std::vector<size_t> rows(kRows);
    std::iota(rows.begin(), rows.end(), 0);
    view = DatasetView(train, std::move(rows));
  } else {
    train = MakeData(c.num_classes, c.tied, c.features, 31);
    held_out = MakeData(c.num_classes, c.tied, c.features, 32);
    view = DatasetView(train);
  }
  Fnv1a h;
  std::ostringstream text;
  switch (c.kind) {
    case Kind::kTree: {
      DecisionTreeConfig config;
      config.max_depth = c.max_depth;
      config.min_samples_leaf = c.min_samples_leaf;
      config.max_features = c.max_features;
      DecisionTree model(config);
      EXPECT_TRUE(model.Fit(view).ok());
      EXPECT_TRUE(SaveDecisionTree(model, text).ok());
      HashPredictions(model, train, &h);
      HashPredictions(model, held_out, &h);
      break;
    }
    case Kind::kForest: {
      RandomForestConfig config;
      config.num_trees = c.num_trees;
      config.bootstrap = c.resample;
      config.seed = 5;
      config.tree.max_depth = c.max_depth;
      config.tree.min_samples_leaf = c.min_samples_leaf;
      RandomForest model(config, pool);
      EXPECT_TRUE(model.Fit(view).ok());
      EXPECT_TRUE(SaveRandomForest(model, text).ok());
      HashPredictions(model, train, &h);
      HashPredictions(model, held_out, &h);
      break;
    }
    case Kind::kGbdt: {
      GbdtConfig config;
      config.num_rounds = 5;
      config.max_depth = c.max_depth;
      config.min_samples_leaf = c.min_samples_leaf;
      config.subsample = c.resample ? 0.5 : 1.0;
      config.seed = 7;
      GbdtModel model(config, pool);
      EXPECT_TRUE(model.Fit(view).ok());
      EXPECT_TRUE(SaveGbdt(model, text).ok());
      h.Double(model.final_loss());
      HashPredictions(model, train, &h);
      HashPredictions(model, held_out, &h);
      break;
    }
  }
  h.Text(text.str());
  return h.value();
}

std::vector<LockCase> Cases() {
  constexpr Kind kTree = Kind::kTree;
  constexpr Kind kForest = Kind::kForest;
  constexpr Kind kGbdt = Kind::kGbdt;
  return {
      {"tree_binary", 0x058084cd6ca5c281ULL,
       kTree, 2},
      {"tree_binary_tied_leaf8", 0xb84c76a896c51d61ULL,
       kTree, 2, true, 8},
      {"tree_6class", 0xf0e4d1b0f9911b11ULL,
       kTree, 6},
      {"tree_6class_leaf8_depth5", 0x730771235802dd3dULL,
       kTree, 6, false, 8, 5},
      {"tree_6class_tied", 0xb4f027e56de9eff3ULL,
       kTree, 6, true},
      {"tree_10class", 0x832e7326332a43d6ULL,
       kTree, 10},
      {"tree_10class_tied_depth4", 0x376362862109e4e1ULL,
       kTree, 10, true, 1, 4},
      {"tree_regression", 0x3e972344d355b4e3ULL,
       kTree, 0},
      {"tree_regression_leaf8_depth6", 0x3c9a36452bb6ae80ULL,
       kTree, 0, false, 8, 6},
      {"tree_regression_tied", 0xe07ed8f4809a449eULL,
       kTree, 0, true},
      {"forest_binary_bootstrap", 0xe347e1de9c571d2dULL,
       kForest, 2, false, 1, 0, true},
      {"forest_6class_tied", 0xad68a1282cbdbbb1ULL,
       kForest, 6, true, 1, 8},
      {"forest_10class_bootstrap_leaf8", 0x67f26a38898c07fdULL,
       kForest, 10, false, 8, 0, true},
      {"forest_regression_bootstrap", 0xa352ee82856750ecULL,
       kForest, 0, false, 1, 0, true},
      {"forest_regression_tied_leaf8_depth6", 0x7d218fff43bd143aULL,
       kForest, 0, true, 8, 6},
      {"gbdt_binary", 0xbb407e9606b3205fULL,
       kGbdt, 2, false, 1, 3},
      {"gbdt_binary_tied_subsample", 0x6e3e01afe8aa135dULL,
       kGbdt, 2, true, 1, 8, true},
      {"gbdt_6class_subsample", 0xe8d4b25bd5c84f7fULL,
       kGbdt, 6, false, 1, 4, true},
      {"gbdt_10class_leaf8", 0x386c6f17c1edeae7ULL,
       kGbdt, 10, false, 8, 3},
      {"gbdt_regression", 0x109462903f2204b9ULL,
       kGbdt, 0, false, 1, 8},
      {"gbdt_regression_tied_leaf8_subsample", 0x5b91dd6e401f2069ULL,
       kGbdt, 0, true, 8, 3, true},
      // Odd and single feature counts: the regression scan pairs the last
      // feature with itself.
      {"tree_regression_7features", 0x1b218ee917a7b860ULL,
       kTree, 0, false, 1, 0, false, 7},
      {"tree_regression_tied_7features_depth5", 0xc4e0dfcd921d1d15ULL,
       kTree, 0, true, 1, 5, false, 7},
      {"tree_regression_1feature", 0xdd3a5c3908e63ba8ULL,
       kTree, 0, false, 1, 0, false, 1},
      {"tree_binary_1feature", 0x6261fdaf586cde15ULL,
       kTree, 2, false, 1, 0, false, 1},
      {"gbdt_regression_7features", 0xebf3e4e8b5c1ec3aULL,
       kGbdt, 0, false, 1, 5, false, 7},
      {"gbdt_6class_tied_7features_subsample", 0x6e8031e04c506818ULL,
       kGbdt, 6, true, 2, 4, true, 7},
      {"gbdt_regression_1feature_subsample", 0x1a51a4234db35a29ULL,
       kGbdt, 0, false, 1, 3, true, 1},
      {"forest_regression_1feature_bootstrap", 0x5157ab228aa4aa6eULL,
       kForest, 0, false, 1, 0, true, 1},
      {"forest_regression_7features_bootstrap_depth8", 0x27788dae3819adb6ULL,
       kForest, 0, false, 1, 8, true, 7},
      // Standalone trees drawing every feature per split, and all but one.
      {"tree_binary_max_features_d", 0x8f0c56c1f1f061c7ULL,
       kTree, 2, false, 1, 0, false, kFeatures, 10},
      {"tree_binary_max_features_d_minus_1", 0x5b842a4225ca20daULL,
       kTree, 2, false, 1, 0, false, kFeatures, 9},
      {"tree_regression_tied_max_features_d", 0x93515d741b8c4490ULL,
       kTree, 0, true, 1, 0, false, kFeatures, 10},
      {"tree_regression_tied_max_features_d_minus_1", 0xf959dea8a30a249dULL,
       kTree, 0, true, 1, 0, false, kFeatures, 9},
      // The CASH benchmark's shape.
      {"cash_gbdt_binary_depth6", 0x0a303731f8758377ULL,
       kGbdt, 2, false, 2, 6, false, 0, 0, 6, true},
      {"cash_gbdt_binary_depth6_leaf8_subsample", 0x731fc6ea34f3f47bULL,
       kGbdt, 2, false, 8, 6, true, 0, 0, 6, true},
      {"cash_forest_16trees_depth6", 0xbd4ca73dea4c23faULL,
       kForest, 2, false, 2, 6, true, 0, 0, 16, true},
  };
}

TEST(TreeBitExactTest, FitsMatchRecordedDigests) {
  for (const LockCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Hex(FitDigest(c)), Hex(c.digest));
  }
}

// Growing a forest's trees, or a GBDT round's per-class trees, on a pool
// reproduces the serial fit bit for bit at every pool size.
TEST(TreeBitExactTest, EnsemblesMatchRecordedDigestsOnEveryPool) {
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    for (const LockCase& c : Cases()) {
      if (c.kind == Kind::kTree) continue;
      SCOPED_TRACE(std::string(c.name) + " on " + std::to_string(workers) +
                   " workers");
      EXPECT_EQ(Hex(FitDigest(c, &pool)), Hex(c.digest));
    }
  }
}

// Rows that occur many times in one node. A node that walks the presorted
// order emits each row as often as it occurs; here one row occurs 5 times
// and another 9 times at the root, which is large enough to walk, and in
// the nodes below it that keep them.
uint64_t RepeatedIdsDigest(int num_classes) {
  Dataset data = MakeData(num_classes, false, kFeatures, 33);
  DatasetView view(data);
  std::vector<uint32_t> ids(data.n());
  std::iota(ids.begin(), ids.end(), 0);
  ids.insert(ids.begin() + 100, 4, 17);
  ids.insert(ids.end(), 8, 250);
  DecisionTree tree;
  SortedColumns index = SortedColumns::Build(view).value();
  TreeWorkspace workspace;
  EXPECT_TRUE(tree.FitRows(view, index, ids, TreeTargets::Of(view),
                           &workspace)
                  .ok());
  std::ostringstream text;
  EXPECT_TRUE(SaveDecisionTree(tree, text).ok());
  Fnv1a h;
  HashPredictions(tree, data, &h);
  h.Text(text.str());
  return h.value();
}

// The constants were recorded while a comparator-sort reference builder
// grew the same trees from the same ids.
TEST(TreeBitExactTest, RepeatedIdsMatchReferenceAndDigest) {
  struct RepeatCase {
    const char* name;
    int num_classes;
    uint64_t digest;
  };
  const RepeatCase cases[] = {{"6class", 6, 0x0662eeaadc20f7a2ULL},
                               {"regression", 0, 0x1893b6521151dad0ULL}};
  for (const RepeatCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Hex(RepeatedIdsDigest(c.num_classes)), Hex(c.digest));
  }
}

}  // namespace
}  // namespace bhpo
