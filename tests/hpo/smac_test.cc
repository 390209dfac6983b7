#include "hpo/smac.h"

#include <gtest/gtest.h>

#include "hpo/bohb.h"
#include "hpo/sequential_search.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(ExpectedImprovementTest, ZeroStddevIsDeterministicImprovement) {
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.9, 0.0, 0.5, 0.0), 0.4);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.3, 0.0, 0.5, 0.0), 0.0);
}

TEST(ExpectedImprovementTest, UncertaintyAddsValue) {
  // Same mean below the incumbent: only uncertainty can yield improvement.
  double certain = ExpectedImprovement(0.4, 0.0, 0.5, 0.0);
  double uncertain = ExpectedImprovement(0.4, 0.2, 0.5, 0.0);
  EXPECT_DOUBLE_EQ(certain, 0.0);
  EXPECT_GT(uncertain, 0.0);
}

TEST(ExpectedImprovementTest, MonotoneInMean) {
  EXPECT_GT(ExpectedImprovement(0.8, 0.1, 0.5, 0.0),
            ExpectedImprovement(0.6, 0.1, 0.5, 0.0));
}

TEST(ExpectedImprovementTest, SymmetricFormulaSanity) {
  // At mean == best, EI = stddev * pdf(0) = stddev * 0.3989...
  double ei = ExpectedImprovement(0.5, 1.0, 0.5, 0.0);
  EXPECT_NEAR(ei, 0.398942, 1e-5);
}

TEST(SmacTest, ConvergesToGoodArmNoiseless) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  SmacOptions options;
  options.initial_random = 6;
  SmacConfigSampler sampler(&space, options);
  SequentialSearch smac(&sampler, &strategy, 25);
  Dataset data = BudgetDataset(200);
  Rng rng(1);
  HpoResult result = smac.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 25u);
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.8);
}

TEST(SmacTest, AllEvaluationsAtFullBudget) {
  ConfigSpace space = QualitySpace(5);
  FakeStrategy strategy(0.1);
  SmacConfigSampler sampler(&space);
  SequentialSearch smac(&sampler, &strategy, 10);
  Dataset data = BudgetDataset(300);
  Rng rng(2);
  HpoResult result = smac.Optimize(data, &rng).value();
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.budget, 300u);
  }
}

TEST(SmacTest, SurrogatePhaseOutperformsItsWarmStart) {
  // With a clean signal, the mean score of the model-guided phase should
  // beat the mean score of the random warm start.
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.02);
  SmacOptions options;
  options.initial_random = 8;
  SmacConfigSampler sampler(&space, options);
  SequentialSearch smac(&sampler, &strategy, 24);
  Dataset data = BudgetDataset(200);
  Rng rng(3);
  HpoResult result = smac.Optimize(data, &rng).value();
  double warm_mean = 0.0, guided_mean = 0.0;
  for (size_t i = 0; i < 8; ++i) warm_mean += result.history[i].score;
  for (size_t i = 8; i < 24; ++i) guided_mean += result.history[i].score;
  warm_mean /= 8;
  guided_mean /= 16;
  EXPECT_GT(guided_mean, warm_mean);
}

TEST(SmacTest, RejectsNullRng) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  SmacConfigSampler sampler(&space);
  SequentialSearch smac(&sampler, &strategy, 20);
  Dataset data = BudgetDataset(100);
  EXPECT_FALSE(smac.Optimize(data, nullptr).ok());
}

// Fails every evaluation with a demotable error.
class FailingStrategy : public EvalStrategy {
 public:
  Result<EvalResult> Evaluate(const Configuration&, const Dataset&, size_t,
                              Rng*) override {
    return Status::Internal("evaluation always fails");
  }
  std::string name() const override { return "failing"; }
};

// With nothing observed after the warm start, the sampler keeps drawing
// uniformly instead of fitting its surrogate on zero rows, and the search
// completes with every evaluation demoted.
TEST(SmacTest, EveryEvaluationDemotedStillCompletes) {
  ConfigSpace space = QualitySpace(6);
  FailingStrategy strategy;
  SmacOptions options;
  options.initial_random = 3;
  SmacConfigSampler sampler(&space, options);
  SequentialSearch smac(&sampler, &strategy, 8);
  Dataset data = BudgetDataset(120);
  Rng rng(6);
  Result<HpoResult> result = smac.Optimize(data, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_evaluations, 8u);
  EXPECT_EQ(result->faults.failed_evals, 8u);
  ASSERT_EQ(result->history.size(), 8u);
  for (const auto& rec : result->history) EXPECT_TRUE(rec.eval_failed);
}

TEST(SequentialSearchTest, NameIsTheSamplersName) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  RandomConfigSampler random(&space);
  TpeConfigSampler tpe(&space);
  SmacConfigSampler smac(&space);
  EXPECT_EQ(SequentialSearch(&random, &strategy, 1).name(), "random");
  EXPECT_EQ(SequentialSearch(&tpe, &strategy, 1).name(), "tpe");
  EXPECT_EQ(SequentialSearch(&smac, &strategy, 1).name(), "smac");
}

TEST(TpeSearchTest, ConvergesToGoodArmNoiseless) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  TpeOptions options;
  options.min_points = 8;
  TpeConfigSampler sampler(&space, options);
  SequentialSearch tpe(&sampler, &strategy, 40);
  Dataset data = BudgetDataset(200);
  Rng rng(4);
  HpoResult result = tpe.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 40u);
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.8);
}

TEST(TpeSearchTest, FullBudgetEvaluationsOnly) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  TpeConfigSampler sampler(&space);
  SequentialSearch tpe(&sampler, &strategy, 5);
  Dataset data = BudgetDataset(150);
  Rng rng(5);
  HpoResult result = tpe.Optimize(data, &rng).value();
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.budget, 150u);
  }
}

}  // namespace
}  // namespace bhpo
