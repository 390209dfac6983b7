// Tree ensembles fitted on the evaluation pool. Inside a CV fold a random
// forest grows its trees, and a GBDT each round's per-class trees, on the
// pool the folds already run on (StrategyOptions::cv_pool); the final fit
// takes the caller's pool through EvaluateFinalConfig. Neither may change a
// bit of the outcome at any pool size.
//
// TreeCashSearchTest runs a small BOHB+ search over a random-forest/GBDT
// space on the a9a stand-in, with configurations, folds and trees sharing
// one pool and the evaluation cache on, and compares it with the same
// search run serially with the cache off: best configuration, best score
// bits and a hash of the whole history (config key, score bits, budget,
// demotion, then the evaluation and instance totals).

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "data/split.h"
#include "hpo/bohb.h"
#include "hpo/eval_cache.h"
#include "hpo/model_factory.h"
#include "hpo/optimizer.h"
#include "tests/ml/tree_digest.h"

namespace bhpo {
namespace {

// 2 * 2 * 2 * 2 * 2 * 2 = 64 points; each family ignores the other's knobs.
ConfigSpace SmallCashSpace() {
  ConfigSpace space;
  EXPECT_TRUE(space.Add("model", {"random_forest", "gbdt"}).ok());
  EXPECT_TRUE(space.Add("num_trees", {"4", "9"}).ok());
  EXPECT_TRUE(space.Add("num_rounds", {"2", "3"}).ok());
  EXPECT_TRUE(space.Add("max_depth", {"2", "5"}).ok());
  EXPECT_TRUE(space.Add("min_samples_leaf", {"2", "8"}).ok());
  EXPECT_TRUE(space.Add("learning_rate_init", {"0.1", "0.3"}).ok());
  return space;
}

struct SearchDigest {
  std::string best_config;
  uint64_t best_score_bits = 0;
  uint64_t history = 0;
};

SearchDigest Digest(const HpoResult& result) {
  Fnv1a h;
  for (const EvaluationRecord& record : result.history) {
    std::string key = record.config.Key();
    h.Bytes(key.data(), key.size());
    h.Double(record.score);
    h.U64(record.budget);
    h.U64(record.eval_failed ? 1 : 0);
  }
  h.U64(result.num_evaluations);
  h.U64(result.total_instances);
  return {result.best_config.Key(), std::bit_cast<uint64_t>(result.best_score),
          h.value()};
}

// One BOHB+ search. With a pool, configurations, folds and trees all run on
// it and the evaluation cache is on; without one, the search is serial and
// uncached.
SearchDigest RunCashSearch(const Dataset& train, ThreadPool* pool) {
  ConfigSpace space = SmallCashSpace();
  FaultInjector faults{FaultPlan{}};  // Ignores any inherited BHPO_FAULT.
  std::unique_ptr<EvalCache> cache;
  if (pool != nullptr) cache = std::make_unique<EvalCache>();
  StrategyOptions options;
  options.metric = EvalMetric::kAccuracy;
  options.factory.seed = 41;
  options.cv_pool = pool;
  options.cache = cache.get();
  options.faults = &faults;
  GroupingOptions grouping;
  grouping.seed = 43;
  ScoringOptions scoring;
  scoring.use_variance = true;
  std::unique_ptr<EnhancedStrategy> strategy =
      EnhancedStrategy::Create(train, grouping, GenFoldsOptions(), scoring,
                               options)
          .value();
  std::unique_ptr<CachingStrategy> caching;
  EvalStrategy* eval = strategy.get();
  if (cache != nullptr) {
    caching = std::make_unique<CachingStrategy>(strategy.get(), cache.get());
    eval = caching.get();
  }
  HyperbandOptions hb_options;
  hb_options.pool = pool;
  Bohb bohb(&space, eval, hb_options);
  Rng rng(47);
  Result<HpoResult> result = bohb.Optimize(train, &rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_EQ(result.value().faults.total_degradations(), 0u);
  return Digest(result.value());
}

TEST(TreeCashSearchTest, PoolSizesMatchSerialCacheOffDigest) {
  TrainTestSplit data = MakePaperDataset("a9a", 5, 0.1).value();
  SearchDigest serial = RunCashSearch(data.train, nullptr);
  ASSERT_FALSE(serial.best_config.empty());
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    SearchDigest pooled = RunCashSearch(data.train, &pool);
    EXPECT_EQ(pooled.best_config, serial.best_config);
    EXPECT_EQ(pooled.best_score_bits, serial.best_score_bits);
    EXPECT_EQ(pooled.history, serial.history);
  }
}

// The final fit of a tree configuration on a pool scores bit-identically to
// the serial fit. Four classes give a GBDT round four parallel trees.
TEST(FinalFitPoolTest, TreeMetricsMatchSerialFit) {
  BlobsSpec spec;
  spec.n = 300;
  spec.num_features = 6;
  spec.num_classes = 4;
  spec.cluster_spread = 2.5;
  spec.label_noise = 0.2;
  spec.seed = 53;
  Rng split_rng(59);
  TrainTestSplit data =
      SplitTrainTest(MakeBlobs(spec).value().Standardized(), 0.25, &split_rng)
          .value();
  Configuration forest;
  forest.Set("model", "random_forest");
  forest.Set("num_trees", "12");
  forest.Set("max_depth", "5");
  Configuration gbdt;
  gbdt.Set("model", "gbdt");
  gbdt.Set("num_rounds", "6");
  gbdt.Set("max_depth", "3");
  gbdt.Set("subsample", "0.7");
  FactoryOptions options;
  options.seed = 61;
  ThreadPool pool(4);
  for (const Configuration& config : {forest, gbdt}) {
    SCOPED_TRACE(config.ToString());
    FinalEvaluation serial =
        EvaluateFinalConfig(config, data.train, data.test,
                            EvalMetric::kAccuracy, options)
            .value();
    FinalEvaluation pooled =
        EvaluateFinalConfig(config, data.train, data.test,
                            EvalMetric::kAccuracy, options, &pool)
            .value();
    EXPECT_EQ(std::bit_cast<uint64_t>(pooled.train_metric),
              std::bit_cast<uint64_t>(serial.train_metric));
    EXPECT_EQ(std::bit_cast<uint64_t>(pooled.test_metric),
              std::bit_cast<uint64_t>(serial.test_metric));
  }
}

}  // namespace
}  // namespace bhpo
