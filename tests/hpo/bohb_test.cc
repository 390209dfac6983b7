#include "hpo/bohb.h"

#include <set>

#include <gtest/gtest.h>

#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(TpeSamplerTest, UniformBeforeEnoughObservations) {
  ConfigSpace space = QualitySpace(5);
  TpeConfigSampler sampler(&space);
  EXPECT_EQ(sampler.ModelBudget(), 0u);
  Rng rng(1);
  // Sampling still works (falls back to uniform).
  Configuration c = sampler.Sample(&rng);
  EXPECT_TRUE(c.Has("q"));
}

TEST(TpeSamplerTest, ModelBudgetPicksHighestPopulatedBudget) {
  ConfigSpace space = QualitySpace(5);
  TpeOptions options;
  options.min_points = 3;
  TpeConfigSampler sampler(&space, options);
  Rng rng(2);
  for (int i = 0; i < 3; ++i) {
    sampler.Observe(space.Sample(&rng), 0.5, 100);
  }
  EXPECT_EQ(sampler.ModelBudget(), 100u);
  for (int i = 0; i < 3; ++i) {
    sampler.Observe(space.Sample(&rng), 0.5, 400);
  }
  EXPECT_EQ(sampler.ModelBudget(), 400u);
  // 2 observations at 800 are not enough; budget stays 400.
  sampler.Observe(space.Sample(&rng), 0.5, 800);
  sampler.Observe(space.Sample(&rng), 0.5, 800);
  EXPECT_EQ(sampler.ModelBudget(), 400u);
}

TEST(TpeSamplerTest, LearnsToPreferGoodValues) {
  ConfigSpace space = QualitySpace(4);  // Values 0.00, 0.10, 0.20, 0.30.
  TpeOptions options;
  options.min_points = 8;
  options.random_fraction = 0.0;  // Pure model sampling for the test.
  TpeConfigSampler sampler(&space, options);
  Rng rng(3);
  // Feed observations where "0.30" always scores high and others low.
  for (int i = 0; i < 40; ++i) {
    Configuration c = space.Sample(&rng);
    double q = ParseDouble(c.Get("q").value()).value();
    sampler.Observe(c, q > 0.25 ? 0.9 + 0.001 * i : 0.1, 100);
  }
  int best_picked = 0;
  const int kDraws = 200;
  for (int i = 0; i < kDraws; ++i) {
    if (sampler.Sample(&rng).Get("q").value() == "0.30") ++best_picked;
  }
  // Far above the uniform 25%.
  EXPECT_GT(best_picked, kDraws / 2);
}

TEST(TpeSamplerTest, StronglyDisfavoredCandidateIsStillAFullConfig) {
  // One binary hyperparameter, 2 "a" winners vs 10 "b" losers: l/g gives
  // "b" a log ratio of about -1.3, so a lone "b" candidate is the best (and
  // only) one and must be returned as-is, never as an empty configuration.
  ConfigSpace space;
  ASSERT_TRUE(space.Add("arm", {"a", "b"}).ok());
  TpeOptions options;
  options.num_candidates = 1;
  options.random_fraction = 0.0;
  options.top_fraction = 0.1;
  TpeConfigSampler sampler(&space, options);
  Configuration a, b;
  a.Set("arm", "a");
  b.Set("arm", "b");
  for (int i = 0; i < 2; ++i) sampler.Observe(a, 0.9, 100);
  for (int i = 0; i < 10; ++i) sampler.Observe(b, 0.1, 100);
  ASSERT_EQ(sampler.ModelBudget(), 100u);

  Rng rng(5);
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) {
    Configuration c = sampler.Sample(&rng);
    ASSERT_TRUE(c.Has("arm")) << "sample " << i << " is empty";
    seen.insert(c.Get("arm").value());
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(TpeSamplerTest, RandomFractionKeepsExploring) {
  ConfigSpace space = QualitySpace(4);
  TpeOptions options;
  options.min_points = 4;
  options.random_fraction = 1.0;  // Always random.
  TpeConfigSampler sampler(&space, options);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    sampler.Observe(space.Sample(&rng), 0.9, 100);
  }
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(sampler.Sample(&rng).Get("q").value());
  }
  EXPECT_EQ(seen.size(), 4u);  // Uniform exploration covers the domain.
}

TEST(BohbTest, NoiselessFindsTopTierArm) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  Bohb bohb(&space, &strategy);
  Dataset data = BudgetDataset(810);
  Rng rng(5);
  HpoResult result = bohb.Optimize(data, &rng).value();
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.8);
}

TEST(BohbTest, ModelGuidanceBeatsNothing) {
  // With noisy evaluations BOHB should still return a sane configuration
  // and run at least as many evaluations as plain Hyperband structure
  // dictates.
  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(0.3);
  Bohb bohb(&space, &strategy);
  Dataset data = BudgetDataset(400);
  Rng rng(6);
  HpoResult result = bohb.Optimize(data, &rng).value();
  EXPECT_GT(result.num_evaluations, 10u);
  EXPECT_TRUE(result.best_config.Has("q"));
}

}  // namespace
}  // namespace bhpo
