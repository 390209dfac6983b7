// FaultSmoke: every bandit strategy must complete a real search — real
// models, real CV — whether or not faults are being injected. These tests
// use the GLOBAL injector (StrategyOptions::faults = nullptr), so the same
// binary serves two ctest registrations: the plain run (BHPO_FAULT unset,
// injector disabled, clean-run assertions) and the bhpo_faults_smoke
// variant (BHPO_FAULT=rate=0.3,seed=7), where a 30% mixed-fault storm must
// degrade gracefully: no aborts, a best configuration, and honest
// fault/retry/quarantine counters in the result.
#include <memory>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "data/synthetic.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/hyperband.h"
#include "hpo/pasha.h"
#include "hpo/sequential_search.h"
#include "hpo/sha.h"

namespace bhpo {
namespace {

struct Env {
  Dataset train;
  ConfigSpace space;
  StrategyOptions options;
};

Env MakeEnv(uint64_t seed) {
  Env env;
  BlobsSpec spec;
  spec.n = 120;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.seed = seed;
  env.train = MakeBlobs(spec).value().Standardized();

  Status st = env.space.Add("hidden_layer_sizes", {"(6)", "(10)"});
  BHPO_CHECK(st.ok());
  st = env.space.Add("activation", {"relu", "tanh"});
  BHPO_CHECK(st.ok());
  st = env.space.Add("learning_rate_init", {"0.05", "0.01"});
  BHPO_CHECK(st.ok());

  env.options.factory.max_iter = 8;
  env.options.factory.seed = seed + 1;
  return env;
}

bool FaultsActive() { return FaultInjector::Global()->enabled(); }

// The strategy-completes-and-reports contract, faults on or off.
void CheckResult(const HpoResult& result) {
  EXPECT_FALSE(result.history.empty());
  EXPECT_EQ(result.history.size(), result.num_evaluations);
  if (FaultsActive()) {
    // A 30% mixed-fault profile over dozens of folds fires essentially
    // surely; the counters must reflect it.
    EXPECT_GT(result.faults.injected_faults, 0u);
  } else {
    // Clean run: every degradation counter is exactly zero.
    EXPECT_EQ(result.faults.injected_faults, 0u);
    EXPECT_EQ(result.faults.failed_evals, 0u);
    EXPECT_EQ(result.faults.failed_folds, 0u);
    EXPECT_EQ(result.faults.quarantined_folds, 0u);
    EXPECT_EQ(result.faults.timed_out_folds, 0u);
    EXPECT_EQ(result.faults.fold_retries, 0u);
    for (const EvaluationRecord& record : result.history) {
      EXPECT_FALSE(record.eval_failed);
    }
  }
}

TEST(FaultSmoke, ShaVanilla) {
  Env env = MakeEnv(10);
  VanillaStrategy strategy(env.options);
  SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy);
  Rng rng(4);
  HpoResult result = sha.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_TRUE(result.best_config.Has("activation"));
}

TEST(FaultSmoke, ShaEnhanced) {
  Env env = MakeEnv(20);
  GroupingOptions grouping;
  grouping.seed = 3;
  ScoringOptions scoring;
  scoring.use_variance = true;
  auto strategy = EnhancedStrategy::Create(env.train, grouping,
                                           GenFoldsOptions(), scoring,
                                           env.options)
                      .value();
  SuccessiveHalving sha(env.space.EnumerateGrid(), strategy.get());
  Rng rng(5);
  HpoResult result = sha.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_TRUE(result.best_config.Has("hidden_layer_sizes"));
}

TEST(FaultSmoke, Hyperband) {
  Env env = MakeEnv(30);
  VanillaStrategy strategy(env.options);
  RandomConfigSampler sampler(&env.space);
  HyperbandOptions options;
  options.min_budget = 40;
  Hyperband hb(&sampler, &strategy, options);
  Rng rng(6);
  HpoResult result = hb.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_TRUE(result.best_config.Has("hidden_layer_sizes"));
}

TEST(FaultSmoke, Bohb) {
  Env env = MakeEnv(40);
  VanillaStrategy strategy(env.options);
  HyperbandOptions options;
  options.min_budget = 40;
  Bohb bohb(&env.space, &strategy, options);
  Rng rng(7);
  HpoResult result = bohb.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_TRUE(result.best_config.Has("activation"));
}

TEST(FaultSmoke, Asha) {
  Env env = MakeEnv(50);
  VanillaStrategy strategy(env.options);
  AshaOptions options;
  options.max_jobs = 12;
  options.min_budget = 30;
  Asha asha(&env.space, &strategy, options);
  Rng rng(8);
  HpoResult result = asha.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_EQ(result.num_evaluations, 12u);
}

TEST(FaultSmoke, Pasha) {
  Env env = MakeEnv(60);
  VanillaStrategy strategy(env.options);
  PashaOptions options;
  options.max_jobs = 12;
  options.min_budget = 30;
  Pasha pasha(&env.space, &strategy, options);
  Rng rng(9);
  HpoResult result = pasha.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_EQ(result.num_evaluations, 12u);
}

TEST(FaultSmoke, RandomSearch) {
  Env env = MakeEnv(70);
  VanillaStrategy strategy(env.options);
  RandomConfigSampler sampler(&env.space);
  SequentialSearch search(&sampler, &strategy, 4);
  Rng rng(10);
  HpoResult result = search.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_EQ(result.num_evaluations, 4u);
}

TEST(FaultSmoke, ShaWithCheckpointing) {
  // Exercises the kCheckpointTornWrite site under the global profile: a
  // torn write is logged and skipped, never fatal — the search completes
  // either way.
  Env env = MakeEnv(80);
  VanillaStrategy strategy(env.options);
  ShaOptions options;
  options.checkpoint.path = ::testing::TempDir() + "/fault_smoke_sha.ckpt";
  options.checkpoint.run_tag = "fault-smoke";
  SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy, options);
  Rng rng(11);
  HpoResult result = sha.Optimize(env.train, &rng).value();
  CheckResult(result);
  EXPECT_TRUE(result.best_config.Has("activation"));
}

TEST(FaultSmoke, PoolSizeInvariantUnderFaults) {
  // Fault decisions are pure functions of (seed, point, site, attempt), so
  // a faulted search is still bit-identical across pool sizes.
  Env env = MakeEnv(90);
  auto run = [&env](ThreadPool* pool) {
    StrategyOptions strategy_options = env.options;
    strategy_options.cv_pool = pool;
    VanillaStrategy strategy(strategy_options);
    ShaOptions options;
    options.pool = pool;
    SuccessiveHalving sha(env.space.EnumerateGrid(), &strategy, options);
    Rng rng(12);
    return sha.Optimize(env.train, &rng).value();
  };
  HpoResult serial = run(nullptr);
  ThreadPool pool(8);
  HpoResult parallel = run(&pool);

  EXPECT_TRUE(serial.best_config == parallel.best_config);
  EXPECT_EQ(serial.best_score, parallel.best_score);
  EXPECT_EQ(serial.faults.failed_evals, parallel.faults.failed_evals);
  EXPECT_EQ(serial.faults.failed_folds, parallel.faults.failed_folds);
  EXPECT_EQ(serial.faults.quarantined_folds,
            parallel.faults.quarantined_folds);
  EXPECT_EQ(serial.faults.fold_retries, parallel.faults.fold_retries);
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].score, parallel.history[i].score) << i;
    EXPECT_EQ(serial.history[i].eval_failed, parallel.history[i].eval_failed)
        << i;
  }
}

}  // namespace
}  // namespace bhpo
