#include "hpo/eval_strategy.h"

#include <cstdint>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bhpo {
namespace {

Dataset TinyBlobs(size_t n = 80, uint64_t seed = 1) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 3;
  spec.num_classes = 2;
  spec.clusters_per_class = 1;
  spec.cluster_spread = 0.5;
  spec.center_spread = 5.0;
  spec.seed = seed;
  return MakeBlobs(spec).value().Standardized();
}

Configuration CheapConfig() {
  Configuration config;
  config.Set("hidden_layer_sizes", "(6)");
  config.Set("solver", "adam");
  config.Set("learning_rate_init", "0.01");
  return config;
}

StrategyOptions FastOptions() {
  StrategyOptions options;
  options.factory.max_iter = 15;
  options.factory.seed = 5;
  return options;
}

TEST(ClampBudgetTest, Bounds) {
  EXPECT_EQ(ClampBudget(3, 100, 5), 10u);    // Floor = 2 * folds.
  EXPECT_EQ(ClampBudget(50, 100, 5), 50u);   // In range.
  EXPECT_EQ(ClampBudget(500, 100, 5), 100u); // Ceiling = n.
  EXPECT_EQ(ClampBudget(3, 6, 5), 6u);       // Floor capped by n.
}

TEST(VanillaStrategyTest, EvaluateProducesSaneResult) {
  Dataset data = TinyBlobs();
  VanillaStrategy strategy(FastOptions());
  Rng rng(2);
  EvalResult r = strategy.Evaluate(CheapConfig(), data, 40, &rng).value();
  EXPECT_EQ(r.budget_used, 40u);
  EXPECT_NEAR(r.gamma_percent, 50.0, 1e-9);
  EXPECT_EQ(r.cv.fold_scores.size(), 5u);
  EXPECT_GE(r.score, 0.0);
  EXPECT_LE(r.score, 1.0);
  EXPECT_DOUBLE_EQ(r.score, r.cv.mean);  // Vanilla = mean only.
}

TEST(VanillaStrategyTest, FullBudgetUsesWholeTrainSet) {
  Dataset data = TinyBlobs();
  VanillaStrategy strategy(FastOptions());
  Rng rng(3);
  EvalResult r =
      strategy.Evaluate(CheapConfig(), data, data.n(), &rng).value();
  EXPECT_EQ(r.budget_used, data.n());
  EXPECT_EQ(r.cv.subset_size, data.n());
  EXPECT_NEAR(r.gamma_percent, 100.0, 1e-9);
}

TEST(VanillaStrategyTest, RandomVariantAlsoWorks) {
  Dataset data = TinyBlobs();
  VanillaStrategy strategy(FastOptions(), /*stratified=*/false);
  EXPECT_EQ(strategy.name(), "vanilla-random");
  Rng rng(4);
  EvalResult r = strategy.Evaluate(CheapConfig(), data, 40, &rng).value();
  EXPECT_EQ(r.cv.fold_scores.size(), 5u);
}

TEST(VanillaStrategyTest, RejectsNullRng) {
  Dataset data = TinyBlobs();
  VanillaStrategy strategy(FastOptions());
  EXPECT_FALSE(strategy.Evaluate(CheapConfig(), data, 40, nullptr).ok());
}

TEST(EnhancedStrategyTest, CreateValidatesFoldArithmetic) {
  Dataset data = TinyBlobs();
  GroupingOptions grouping;
  GenFoldsOptions folds;
  folds.k_gen = 3;
  folds.k_spe = 3;  // 3 + 3 != 5.
  ScoringOptions scoring;
  EXPECT_FALSE(
      EnhancedStrategy::Create(data, grouping, folds, scoring, FastOptions())
          .ok());
  // A negative count cast to size_t: k_gen + k_spe wraps around to 2,
  // which must not pass as two folds.
  folds.k_gen = SIZE_MAX;
  StrategyOptions two_folds = FastOptions();
  two_folds.num_folds = 2;
  EXPECT_EQ(EnhancedStrategy::Create(data, grouping, folds, scoring, two_folds)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EnhancedStrategyTest, CreateValidatesScoringOptions) {
  Dataset data = TinyBlobs();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // {alpha, beta_max} pairs that Equation 3 cannot use.
  for (auto [alpha, beta_max] :
       {std::pair{-0.1, 10.0}, std::pair{nan, 10.0}, std::pair{inf, 10.0},
        std::pair{0.1, 0.0}, std::pair{0.1, -1.0}, std::pair{0.1, nan},
        std::pair{0.1, inf}}) {
    ScoringOptions scoring;
    scoring.use_variance = true;
    scoring.alpha = alpha;
    scoring.beta_max = beta_max;
    EXPECT_EQ(EnhancedStrategy::Create(data, GroupingOptions(),
                                       GenFoldsOptions(), scoring,
                                       FastOptions())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << alpha << " " << beta_max;
  }
  ScoringOptions zero_alpha;
  zero_alpha.alpha = 0.0;
  EXPECT_TRUE(EnhancedStrategy::Create(data, GroupingOptions(),
                                       GenFoldsOptions(), zero_alpha,
                                       FastOptions())
                  .ok());
}

TEST(EnhancedStrategyTest, EvaluateUsesEquation3) {
  Dataset data = TinyBlobs(100, 7);
  GroupingOptions grouping;
  grouping.seed = 8;
  GenFoldsOptions folds;
  ScoringOptions scoring;
  scoring.use_variance = true;
  auto strategy = EnhancedStrategy::Create(data, grouping, folds, scoring,
                                           FastOptions())
                      .value();
  Rng rng(9);
  EvalResult r = strategy->Evaluate(CheapConfig(), data, 30, &rng).value();
  EXPECT_EQ(r.cv.fold_scores.size(), 5u);
  // Equation 3: score >= mean (non-negative variance bonus).
  EXPECT_GE(r.score, r.cv.mean - 1e-12);
}

TEST(EnhancedStrategyTest, MeanOnlyAblationMatchesMean) {
  Dataset data = TinyBlobs(100, 10);
  GroupingOptions grouping;
  grouping.seed = 11;
  ScoringOptions scoring;
  scoring.use_variance = false;  // Figure 7's vanilla-metric ablation.
  auto strategy = EnhancedStrategy::Create(data, grouping, GenFoldsOptions(),
                                           scoring, FastOptions())
                      .value();
  Rng rng(12);
  EvalResult r = strategy->Evaluate(CheapConfig(), data, 30, &rng).value();
  EXPECT_DOUBLE_EQ(r.score, r.cv.mean);
}

TEST(EnhancedStrategyTest, RejectsForeignDataset) {
  Dataset data = TinyBlobs(100, 13);
  auto strategy = EnhancedStrategy::Create(data, GroupingOptions(),
                                           GenFoldsOptions(), ScoringOptions(),
                                           FastOptions())
                      .value();
  Dataset other = TinyBlobs(60, 14);
  Rng rng(15);
  auto r = strategy->Evaluate(CheapConfig(), other, 30, &rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EnhancedStrategyTest, WorksOnRegression) {
  RegressionSpec spec;
  spec.n = 90;
  spec.seed = 16;
  Dataset data = MakeRegression(spec).value().Standardized();
  auto strategy = EnhancedStrategy::Create(data, GroupingOptions(),
                                           GenFoldsOptions(), ScoringOptions(),
                                           FastOptions())
                      .value();
  Configuration config = CheapConfig();
  config.Set("solver", "lbfgs");
  Rng rng(17);
  EvalResult r = strategy->Evaluate(config, data, 45, &rng).value();
  EXPECT_EQ(r.cv.fold_scores.size(), 5u);
}

TEST(StrategyDeterminismTest, SameRngSeedSameScore) {
  Dataset data = TinyBlobs(80, 18);
  VanillaStrategy strategy(FastOptions());
  Rng rng_a(19), rng_b(19);
  EvalResult a = strategy.Evaluate(CheapConfig(), data, 40, &rng_a).value();
  EvalResult b = strategy.Evaluate(CheapConfig(), data, 40, &rng_b).value();
  EXPECT_DOUBLE_EQ(a.score, b.score);
}

}  // namespace
}  // namespace bhpo
