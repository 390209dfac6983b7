#include "cv/cross_validate.h"

#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"
#include "hpo/eval_strategy.h"
#include "ml/mlp.h"

namespace bhpo {
namespace {

// Deterministic stub model: predicts the majority class of its training
// set. Lets CV tests check plumbing without MLP nondeterminism/cost.
class MajorityModel : public Model {
 public:
  Status Fit(const DatasetView& train) override {
    if (!train.valid() || train.n() == 0) {
      return Status::InvalidArgument("empty");
    }
    std::vector<size_t> counts = train.ClassCounts();
    majority_ = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    return Status::OK();
  }
  std::vector<int> PredictLabels(const FeatureRows& rows) const override {
    return std::vector<int>(rows.n(), majority_);
  }
  std::vector<double> PredictValues(const FeatureRows&) const override {
    BHPO_CHECK(false) << "classification stub";
    return {};
  }

 private:
  int majority_ = 0;
};

// A model whose Fit always fails, for the divergence path.
class BrokenModel : public Model {
 public:
  Status Fit(const DatasetView&) override {
    return Status::Internal("synthetic divergence");
  }
  std::vector<int> PredictLabels(const FeatureRows&) const override {
    return {};
  }
  std::vector<double> PredictValues(const FeatureRows&) const override {
    return {};
  }
};

Dataset SkewedData(size_t n = 100, double positive_share = 0.3) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 2;
  spec.num_classes = 2;
  spec.class_weights = {1.0 - positive_share, positive_share};
  spec.seed = 1;
  return MakeBlobs(spec).value();
}

// A fresh M for every fold.
template <typename M>
FoldModelFactory EveryFold() {
  return [](size_t) -> std::unique_ptr<Model> { return std::make_unique<M>(); };
}

FoldSet FiveFolds(const Dataset& data) {
  std::vector<size_t> subset(data.n());
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(2);
  StratifiedKFold builder;
  return builder.Build(data, subset, 5, &rng).value();
}

TEST(MeanStddevTest, KnownValues) {
  double mean = 0.0, stddev = 0.0;
  MeanStddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}, &mean, &stddev);
  EXPECT_DOUBLE_EQ(mean, 5.0);
  EXPECT_DOUBLE_EQ(stddev, 2.0);  // Population stddev.
}

TEST(MeanStddevTest, EmptyIsZero) {
  double mean = 1.0, stddev = 1.0;
  MeanStddev({}, &mean, &stddev);
  EXPECT_DOUBLE_EQ(mean, 0.0);
  EXPECT_DOUBLE_EQ(stddev, 0.0);
}

TEST(CrossValidateTest, MajorityModelScoresItsBaseRate) {
  Dataset data = SkewedData(200, 0.3);
  FoldSet folds = FiveFolds(data);
  CvOutcome outcome =
      CrossValidate(data, folds,
                    EveryFold<MajorityModel>())
          .value();
  ASSERT_EQ(outcome.fold_scores.size(), 5u);
  // Majority class is 70% of every stratified fold.
  EXPECT_NEAR(outcome.mean, 0.7, 0.05);
  EXPECT_EQ(outcome.subset_size, 200u);
}

TEST(CrossValidateTest, FailedFoldsAreCountedNotScored) {
  Dataset data = SkewedData(50);
  FoldSet folds = FiveFolds(data);
  CvOutcome outcome =
      CrossValidate(data, folds,
                    EveryFold<BrokenModel>())
          .value();
  // Failures are recorded, not folded into the mean as fake scores; with
  // every fold broken the mean is the worst possible value.
  EXPECT_EQ(outcome.failed_folds, 5u);
  EXPECT_TRUE(outcome.fold_scores.empty());
  EXPECT_TRUE(std::isinf(outcome.mean));
  EXPECT_LT(outcome.mean, 0.0);
  EXPECT_DOUBLE_EQ(outcome.stddev, 0.0);
}

TEST(CrossValidateTest, PartialFailureExcludesOnlyBrokenFolds) {
  Dataset data = SkewedData(200, 0.3);
  FoldSet folds = FiveFolds(data);
  // Fold 2's model is broken; every other fold fits normally.
  FoldModelFactory factory = [](size_t fold) -> std::unique_ptr<Model> {
    if (fold == 2) return std::make_unique<BrokenModel>();
    return std::make_unique<MajorityModel>();
  };
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, factory).value();
  EXPECT_EQ(outcome.failed_folds, 1u);
  ASSERT_EQ(outcome.fold_scores.size(), 4u);
  EXPECT_NEAR(outcome.mean, 0.7, 0.05);
}

TEST(CrossValidateTest, EmptyFoldsAreSkipped) {
  Dataset data = SkewedData(40);
  FoldSet folds = FiveFolds(data);
  folds.folds.push_back({});  // A 6th, empty fold.
  CvOutcome outcome =
      CrossValidate(data, folds,
                    EveryFold<MajorityModel>())
          .value();
  EXPECT_EQ(outcome.fold_scores.size(), 5u);
}

TEST(CrossValidateTest, RejectsBadInputs) {
  Dataset data = SkewedData(40);
  FoldSet folds = FiveFolds(data);
  EXPECT_FALSE(CrossValidate(data, folds, nullptr).ok());
  FoldSet one;
  one.folds = {{0, 1, 2}};
  EXPECT_FALSE(
      CrossValidate(data, one,
                    EveryFold<MajorityModel>())
          .ok());
  FoldSet overlapping;
  overlapping.folds = {{0, 1}, {1, 2}};
  EXPECT_FALSE(
      CrossValidate(data, overlapping,
                    EveryFold<MajorityModel>())
          .ok());
}

TEST(CrossValidateTest, WithRealMlpOnEasyData) {
  BlobsSpec spec;
  spec.n = 100;
  spec.num_features = 3;
  spec.num_classes = 2;
  spec.clusters_per_class = 1;
  spec.cluster_spread = 0.3;
  spec.center_spread = 6.0;
  spec.seed = 5;
  Dataset data = MakeBlobs(spec).value().Standardized();
  FoldSet folds = FiveFolds(data);
  MlpConfig config;
  config.hidden_layer_sizes = {8};
  config.solver = Solver::kAdam;
  config.max_iter = 40;
  config.learning_rate_init = 0.01;
  config.seed = 6;
  CvOutcome outcome =
      CrossValidate(data, folds,
                    [&config](size_t) {
                      return std::make_unique<MlpModel>(config);
                    })
          .value();
  EXPECT_GT(outcome.mean, 0.85);
  EXPECT_GE(outcome.stddev, 0.0);
}

// Fold-parallel CV must reproduce the serial outcome bit for bit: per-fold
// seeds come from MixSeed (independent of execution order) and the
// reduction walks preallocated slots in fold order.
TEST(CrossValidateTest, PoolParallelMatchesSerialBitExact) {
  BlobsSpec spec;
  spec.n = 120;
  spec.num_features = 4;
  spec.num_classes = 3;
  spec.seed = 11;
  Dataset data = MakeBlobs(spec).value().Standardized();
  FoldSet folds = FiveFolds(data);

  MlpConfig config;
  config.hidden_layer_sizes = {6};
  config.solver = Solver::kAdam;
  config.max_iter = 15;
  config.learning_rate_init = 0.01;
  FoldModelFactory factory = [&config](size_t fold) {
    MlpConfig fold_config = config;
    fold_config.seed = MixSeed(7, fold);
    return std::make_unique<MlpModel>(fold_config);
  };

  CvOutcome serial =
      CrossValidate(DatasetView(data), folds, factory).value();

  ThreadPool pool(4);
  CvOptions options;
  options.pool = &pool;
  CvOutcome parallel =
      CrossValidate(DatasetView(data), folds, factory, options).value();

  ASSERT_EQ(parallel.fold_scores.size(), serial.fold_scores.size());
  for (size_t f = 0; f < serial.fold_scores.size(); ++f) {
    EXPECT_DOUBLE_EQ(parallel.fold_scores[f], serial.fold_scores[f]);
  }
  EXPECT_DOUBLE_EQ(parallel.mean, serial.mean);
  EXPECT_DOUBLE_EQ(parallel.stddev, serial.stddev);
  EXPECT_EQ(parallel.failed_folds, serial.failed_folds);
  EXPECT_EQ(parallel.subset_size, serial.subset_size);
}

// Precomputed folds (the evaluation cache's injection path) must replay
// verbatim: injected folds skip their model fit, and the reduction over a
// mix of injected and computed folds is bit-identical to computing all of
// them.
TEST(CrossValidateTest, PrecomputedFoldsSkipFitAndReplayVerbatim) {
  Dataset data = SkewedData(200, 0.3);
  FoldSet folds = FiveFolds(data);
  FoldModelFactory factory = [](size_t) -> std::unique_ptr<Model> {
    return std::make_unique<MajorityModel>();
  };
  CvOutcome reference =
      CrossValidate(DatasetView(data), folds, factory).value();
  ASSERT_EQ(reference.folds.size(), 5u);

  // Re-run with folds 1 and 3 injected from the reference outcome, and a
  // factory that aborts the test if those folds ever try to build a model.
  CvOptions options;
  options.precomputed.push_back(
      {1, reference.folds[1].score, /*failed=*/false});
  options.precomputed.push_back(
      {3, reference.folds[3].score, /*failed=*/false});
  FoldModelFactory guarded = [](size_t fold) -> std::unique_ptr<Model> {
    EXPECT_NE(fold, 1u) << "injected fold was recomputed";
    EXPECT_NE(fold, 3u) << "injected fold was recomputed";
    return std::make_unique<MajorityModel>();
  };
  CvOutcome replayed =
      CrossValidate(DatasetView(data), folds, guarded, options).value();

  EXPECT_EQ(replayed.mean, reference.mean);
  EXPECT_EQ(replayed.stddev, reference.stddev);
  ASSERT_EQ(replayed.fold_scores.size(), reference.fold_scores.size());
  for (size_t f = 0; f < reference.fold_scores.size(); ++f) {
    EXPECT_EQ(replayed.fold_scores[f], reference.fold_scores[f]);
  }
}

TEST(CrossValidateTest, PrecomputedFailureReplaysWithoutRefitting) {
  Dataset data = SkewedData(100, 0.3);
  FoldSet folds = FiveFolds(data);
  CvOptions options;
  options.precomputed.push_back({2, 0.0, /*failed=*/true});
  FoldModelFactory factory = [](size_t fold) -> std::unique_ptr<Model> {
    EXPECT_NE(fold, 2u) << "injected failure was recomputed";
    return std::make_unique<MajorityModel>();
  };
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, factory, options).value();
  EXPECT_EQ(outcome.failed_folds, 1u);
  EXPECT_EQ(outcome.fold_scores.size(), 4u);
  EXPECT_EQ(outcome.folds[2].status, FoldStatus::kFailed);
}

TEST(CrossValidateTest, OutOfRangePrecomputedFoldIsIgnored) {
  Dataset data = SkewedData(100, 0.3);
  FoldSet folds = FiveFolds(data);
  CvOptions options;
  options.precomputed.push_back({17, 0.9, /*failed=*/false});
  CvOutcome outcome =
      CrossValidate(
          DatasetView(data), folds,
          [](size_t) -> std::unique_ptr<Model> {
            return std::make_unique<MajorityModel>();
          },
          options)
          .value();
  EXPECT_EQ(outcome.fold_scores.size(), 5u);  // All folds computed normally.
}

TEST(CrossValidateTest, PerFoldOutcomesAlignWithPartition) {
  Dataset data = SkewedData(100, 0.3);
  FoldSet folds = FiveFolds(data);
  folds.folds.push_back({});  // A 6th, empty fold.
  FoldModelFactory factory = [](size_t fold) -> std::unique_ptr<Model> {
    if (fold == 1) return std::make_unique<BrokenModel>();
    return std::make_unique<MajorityModel>();
  };
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, factory).value();
  ASSERT_EQ(outcome.folds.size(), 6u);
  EXPECT_EQ(outcome.folds[0].status, FoldStatus::kScored);
  EXPECT_EQ(outcome.folds[1].status, FoldStatus::kFailed);
  EXPECT_EQ(outcome.folds[5].status, FoldStatus::kSkipped);
  // Scored entries carry their fold's score in partition order.
  EXPECT_EQ(outcome.folds[0].score, outcome.fold_scores[0]);
}

// ---------------------------------------------------------------------------
// ClampBudget edge cases (table-driven). The floor is min(n, 2k) so every
// fold of a k-fold split over the clamped subset holds >= 2 instances
// whenever the dataset allows it; the ceiling is n.
// ---------------------------------------------------------------------------

TEST(ClampBudgetTest, TableDrivenEdgeCases) {
  struct Case {
    size_t budget, n, num_folds, expected;
    const char* why;
  };
  const Case kCases[] = {
      // budget < num_folds: floor kicks in.
      {3, 100, 5, 10, "tiny budget raised to 2k"},
      {0, 100, 5, 10, "zero budget raised to 2k"},
      // budget > n: capped at n.
      {1000, 100, 5, 100, "over-asked budget capped at n"},
      // n < num_folds: the whole (tiny) dataset is used.
      {2, 3, 5, 3, "n below num_folds uses all of n"},
      {1, 4, 5, 4, "floor saturates at n when 2k > n"},
      // In-range budgets pass through unchanged.
      {40, 100, 5, 40, "in-range budget untouched"},
      {10, 100, 5, 10, "budget exactly at the floor"},
      {100, 100, 5, 100, "budget exactly n"},
      // Degenerate folds: num_folds == 0 treated as 1 (floor 2).
      {1, 100, 0, 2, "zero folds behaves as one fold"},
      {50, 100, 0, 50, "zero folds passes in-range budget"},
      // Degenerate data.
      {10, 0, 5, 0, "empty dataset yields zero"},
      {0, 0, 0, 0, "all-zero input yields zero"},
      {5, 1, 1, 1, "single instance uses itself"},
      // Overflow safety: a huge fold count must not wrap 2k around.
      {10, 100, SIZE_MAX / 2 + 3, 100, "huge k saturates the floor at n"},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(ClampBudget(c.budget, c.n, c.num_folds), c.expected)
        << c.why << " (budget=" << c.budget << " n=" << c.n
        << " k=" << c.num_folds << ")";
  }
}

TEST(ClampBudgetTest, NeverYieldsUncrossvalidatableSubsets) {
  // For every (budget, n, k) over a broad sweep the clamp must return a
  // value in [min(n, 2*max(k,1)), n] — so no fold ends up with less than
  // one instance unless the dataset itself is smaller than the fold count.
  for (size_t n : {0u, 1u, 3u, 7u, 10u, 64u, 1000u}) {
    for (size_t k : {0u, 1u, 2u, 5u, 10u, 501u}) {
      for (size_t budget : {0u, 1u, 5u, 9u, 63u, 999u, 5000u}) {
        size_t clamped = ClampBudget(budget, n, k);
        EXPECT_LE(clamped, n) << "budget=" << budget << " n=" << n
                              << " k=" << k;
        size_t keff = std::max<size_t>(k, 1);
        size_t floor = std::min(n, keff > n / 2 ? n : 2 * keff);
        EXPECT_GE(clamped, floor)
            << "budget=" << budget << " n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace bhpo
