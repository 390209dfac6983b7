#include "hpo/eval_cache.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "hpo/bohb.h"
#include "hpo/hyperband.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

// ---------------------------------------------------------------------------
// EvalCache store semantics
// ---------------------------------------------------------------------------

TEST(EvalCacheTest, FoldMissThenInsertThenHit) {
  EvalCache cache;
  EXPECT_FALSE(cache.LookupFold(1, 2, 0).has_value());
  cache.InsertFold(1, 2, 0, {0.75, false});

  std::optional<EvalCache::FoldScore> hit = cache.LookupFold(1, 2, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->score, 0.75);
  EXPECT_FALSE(hit->failed);

  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.fold_misses, 1u);
  EXPECT_EQ(stats.fold_hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EvalCacheTest, FailedFoldsRoundTrip) {
  EvalCache cache;
  cache.InsertFold(9, 9, 3, {0.0, true});
  std::optional<EvalCache::FoldScore> hit = cache.LookupFold(9, 9, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->failed);
}

TEST(EvalCacheTest, KeyComponentsAreAllSignificant) {
  EvalCache cache;
  cache.InsertFold(1, 2, 3, {0.5, false});
  EXPECT_TRUE(cache.LookupFold(1, 2, 3).has_value());
  EXPECT_FALSE(cache.LookupFold(7, 2, 3).has_value());  // config differs
  EXPECT_FALSE(cache.LookupFold(1, 7, 3).has_value());  // subset differs
  EXPECT_FALSE(cache.LookupFold(1, 2, 4).has_value());  // fold differs
}

TEST(EvalCacheTest, ResultEntriesAreDistinctFromFoldEntries) {
  EvalCache cache;
  cache.InsertFold(5, 6, 0, {0.25, false});
  // A fold entry under the same (config, subset) must not satisfy a
  // whole-result lookup.
  EXPECT_FALSE(cache.LookupResult(5, 6).has_value());

  EvalResult result;
  result.score = 0.9;
  result.budget_used = 123;
  cache.InsertResult(5, 6, result);
  std::optional<EvalResult> hit = cache.LookupResult(5, 6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->score, 0.9);
  EXPECT_EQ(hit->budget_used, 123u);
  // And the fold entry is still there.
  EXPECT_TRUE(cache.LookupFold(5, 6, 0).has_value());

  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(EvalCacheTest, CapacityBoundsResidencyAndCountsEvictions) {
  EvalCacheOptions options;
  options.capacity = 4;
  options.shards = 1;  // Exact capacity accounting.
  EvalCache cache(options);
  for (uint32_t f = 0; f < 10; ++f) {
    cache.InsertFold(1, 1, f, {0.1 * f, false});
  }
  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.insertions, 10u);
  EXPECT_EQ(stats.evictions, 6u);
  // Oldest entries are gone, newest survive.
  EXPECT_FALSE(cache.LookupFold(1, 1, 0).has_value());
  EXPECT_FALSE(cache.LookupFold(1, 1, 5).has_value());
  EXPECT_TRUE(cache.LookupFold(1, 1, 6).has_value());
  EXPECT_TRUE(cache.LookupFold(1, 1, 9).has_value());
}

TEST(EvalCacheTest, LookupRefreshesLruRecency) {
  EvalCacheOptions options;
  options.capacity = 2;
  options.shards = 1;
  EvalCache cache(options);
  cache.InsertFold(1, 1, 0, {0.0, false});
  cache.InsertFold(1, 1, 1, {0.1, false});
  // Touch fold 0 so fold 1 becomes least-recently-used...
  EXPECT_TRUE(cache.LookupFold(1, 1, 0).has_value());
  // ...then push a third entry: fold 1, not fold 0, must be evicted.
  cache.InsertFold(1, 1, 2, {0.2, false});
  EXPECT_TRUE(cache.LookupFold(1, 1, 0).has_value());
  EXPECT_FALSE(cache.LookupFold(1, 1, 1).has_value());
  EXPECT_TRUE(cache.LookupFold(1, 1, 2).has_value());
}

TEST(EvalCacheTest, ReinsertingSameKeyDoesNotGrowTheCache) {
  EvalCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  EvalCache cache(options);
  for (int rep = 0; rep < 5; ++rep) {
    cache.InsertFold(1, 1, 0, {0.5, false});
  }
  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);  // Re-inserts only refresh recency.
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EvalCacheTest, ClearDropsEntriesAndResetsCounters) {
  EvalCache cache;
  cache.InsertFold(1, 1, 0, {0.5, false});
  EXPECT_TRUE(cache.LookupFold(1, 1, 0).has_value());
  cache.Clear();
  EXPECT_FALSE(cache.LookupFold(1, 1, 0).has_value());
  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.fold_hits, 0u);
  EXPECT_EQ(stats.fold_misses, 1u);  // The post-Clear miss above.
}

TEST(EvalCacheTest, HitRateAggregatesBothGranularities) {
  EvalCache cache;
  EXPECT_DOUBLE_EQ(cache.Stats().hit_rate(), 0.0);  // No lookups yet.
  cache.InsertFold(1, 1, 0, {0.5, false});
  EXPECT_TRUE(cache.LookupFold(1, 1, 0).has_value());   // fold hit
  EXPECT_FALSE(cache.LookupResult(2, 2).has_value());   // result miss
  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits(), 1u);
  EXPECT_EQ(stats.misses(), 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

// Many threads inserting and looking up overlapping keys: no crashes, no
// lost values, residency stays within capacity. Run under the sanitizer
// preset (scripts/check.sh) this also proves data-race freedom on the
// shard maps and the stats block.
TEST(EvalCacheTest, ConcurrentInsertAndLookupAreSafe) {
  // Capacity is enforced per shard (capacity / shards each), and hashing
  // need not spread the keys evenly, so each shard gets room for the whole
  // keyspace (17 * 5 * 3 = 255 keys): no insert can evict another key.
  EvalCacheOptions options;
  options.shards = 4;
  options.capacity = 256 * options.shards;
  EvalCache cache(options);
  ThreadPool pool(8);
  constexpr size_t kOps = 2000;
  constexpr size_t kKeys = 17 * 5 * 3;
  pool.ParallelFor(kOps, [&](size_t i) {
    uint64_t config = i % 17;
    uint64_t subset = i % 5;
    uint32_t fold = static_cast<uint32_t>(i % 3);
    double score = 0.001 * static_cast<double>(config);
    cache.InsertFold(config, subset, fold, {score, false});
    std::optional<EvalCache::FoldScore> hit =
        cache.LookupFold(config, subset, fold);
    // The key was just inserted and nothing is ever evicted.
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->score, score);
  });
  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.fold_hits, kOps);
}

// ---------------------------------------------------------------------------
// CachingStrategy decorator
// ---------------------------------------------------------------------------

TEST(CachingStrategyTest, ReplaysIdenticalEvaluationBitExactly) {
  FakeStrategy inner(0.5);  // Noisy: result depends on the rng stream.
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);
  Dataset data = BudgetDataset(100);
  Configuration config;
  config.Set("q", "0.3");

  Rng first(42);
  EvalResult miss = caching.Evaluate(config, data, 50, &first).value();
  EXPECT_FALSE(miss.cache_result_hit);
  EXPECT_EQ(inner.evaluations.load(), 1);

  Rng second(42);  // Identical stream state => identical evaluation.
  EvalResult hit = caching.Evaluate(config, data, 50, &second).value();
  EXPECT_TRUE(hit.cache_result_hit);
  EXPECT_EQ(inner.evaluations.load(), 1);  // Inner was NOT re-run.
  EXPECT_EQ(hit.score, miss.score);        // Bit-exact, not just close.
  EXPECT_EQ(hit.budget_used, miss.budget_used);
  EXPECT_EQ(cache.Stats().result_hits, 1u);
}

TEST(CachingStrategyTest, DifferentRngStateMisses) {
  FakeStrategy inner(0.5);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);
  Dataset data = BudgetDataset(100);
  Configuration config;
  config.Set("q", "0.3");

  Rng a(1), b(2);
  EXPECT_FALSE(caching.Evaluate(config, data, 50, &a)->cache_result_hit);
  EXPECT_FALSE(caching.Evaluate(config, data, 50, &b)->cache_result_hit);
  EXPECT_EQ(inner.evaluations.load(), 2);
}

TEST(CachingStrategyTest, SameStateDifferentBudgetMisses) {
  FakeStrategy inner(0.5);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);
  Dataset data = BudgetDataset(100);
  Configuration config;
  config.Set("q", "0.3");

  Rng a(1), b(1);
  EXPECT_FALSE(caching.Evaluate(config, data, 20, &a)->cache_result_hit);
  // Same stream state, different budget: a different evaluation.
  EXPECT_FALSE(caching.Evaluate(config, data, 80, &b)->cache_result_hit);
  EXPECT_EQ(inner.evaluations.load(), 2);
}

TEST(CachingStrategyTest, DifferentConfigSameStreamMisses) {
  FakeStrategy inner(0.0);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);
  Dataset data = BudgetDataset(100);
  Configuration a, b;
  a.Set("q", "0.1");
  b.Set("q", "0.2");
  Rng ra(1), rb(1);
  EXPECT_FALSE(caching.Evaluate(a, data, 50, &ra)->cache_result_hit);
  EXPECT_FALSE(caching.Evaluate(b, data, 50, &rb)->cache_result_hit);
  EXPECT_EQ(inner.evaluations.load(), 2);
}

TEST(CachingStrategyTest, NameDecoratesInner) {
  FakeStrategy inner(0.0);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);
  EXPECT_EQ(caching.name(), "fake+cache");
}

// ---------------------------------------------------------------------------
// Fold-level cache inside the built-in strategies
// ---------------------------------------------------------------------------

TEST(FoldCacheTest, SecondIdenticalEvaluationHitsEveryFold) {
  BlobsSpec spec;
  spec.n = 80;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 5;
  Dataset data = MakeBlobs(spec).value().Standardized();

  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");

  EvalCache cache;
  StrategyOptions options;
  options.factory.max_iter = 5;
  options.cache = &cache;
  VanillaStrategy strategy(options);

  uint64_t root = 99;
  Rng first = PerEvalRng(root, config, 40, data.n());
  EvalResult cold = strategy.Evaluate(config, data, 40, &first).value();
  EXPECT_EQ(cold.cache_fold_hits, 0u);
  EXPECT_GT(cold.cache_fold_misses, 0u);

  Rng second = PerEvalRng(root, config, 40, data.n());
  EvalResult warm = strategy.Evaluate(config, data, 40, &second).value();
  EXPECT_EQ(warm.cache_fold_misses, 0u);
  EXPECT_EQ(warm.cache_fold_hits, cold.cache_fold_misses);

  // Bit-exact equality of everything the search consumes.
  EXPECT_EQ(warm.score, cold.score);
  EXPECT_EQ(warm.cv.mean, cold.cv.mean);
  EXPECT_EQ(warm.cv.stddev, cold.cv.stddev);
  ASSERT_EQ(warm.cv.fold_scores.size(), cold.cv.fold_scores.size());
  for (size_t f = 0; f < cold.cv.fold_scores.size(); ++f) {
    EXPECT_EQ(warm.cv.fold_scores[f], cold.cv.fold_scores[f]);
  }
}

TEST(FoldCacheTest, CacheOffAndOnProduceIdenticalResults) {
  BlobsSpec spec;
  spec.n = 80;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 6;
  Dataset data = MakeBlobs(spec).value().Standardized();

  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");

  StrategyOptions plain_options;
  plain_options.factory.max_iter = 5;
  VanillaStrategy plain(plain_options);

  EvalCache cache;
  StrategyOptions cached_options = plain_options;
  cached_options.cache = &cache;
  VanillaStrategy cached(cached_options);

  uint64_t root = 7;
  Rng a = PerEvalRng(root, config, 40, data.n());
  Rng b = PerEvalRng(root, config, 40, data.n());
  EvalResult off = plain.Evaluate(config, data, 40, &a).value();
  EvalResult on = cached.Evaluate(config, data, 40, &b).value();
  EXPECT_EQ(off.score, on.score);
  EXPECT_EQ(off.cv.mean, on.cv.mean);
  EXPECT_EQ(off.cv.stddev, on.cv.stddev);
  EXPECT_EQ(off.budget_used, on.budget_used);
}

// A cache hit must be bit-identical no matter which gather variant the
// *producer* evaluation ran under: an entry written by the vectorized
// (AVX2 + run-coalescing) gather and replayed into a scalar-gather process
// (or vice versa) must equal a from-scratch scalar evaluation exactly.
// This is the contract that lets SIMD and portable builds share replayed
// results.
TEST(FoldCacheTest, HitsAreBitIdenticalAcrossGatherVariants) {
  BlobsSpec spec;
  spec.n = 80;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 8;
  Dataset data = MakeBlobs(spec).value().Standardized();

  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");

  EvalCache cache;
  StrategyOptions cached_options;
  cached_options.factory.max_iter = 5;
  cached_options.cache = &cache;
  VanillaStrategy cached(cached_options);
  StrategyOptions plain_options;
  plain_options.factory.max_iter = 5;
  VanillaStrategy plain(plain_options);

  uint64_t root = 55;
  bool previous = SetSimdEnabled(true);

  // Producer: vectorized gather fills the cache (when SIMD is compiled in;
  // otherwise this is a scalar-vs-scalar run and still must hold).
  Rng produce = PerEvalRng(root, config, 40, data.n());
  EvalResult cold = cached.Evaluate(config, data, 40, &produce).value();
  EXPECT_EQ(cold.cache_fold_hits, 0u);

  // Consumer: scalar gather replays every fold from the cache...
  SetSimdEnabled(false);
  Rng replay = PerEvalRng(root, config, 40, data.n());
  EvalResult warm = cached.Evaluate(config, data, 40, &replay).value();
  EXPECT_EQ(warm.cache_fold_misses, 0u);
  // ...and an uncached scalar evaluation recomputes from scratch.
  Rng scratch = PerEvalRng(root, config, 40, data.n());
  EvalResult recomputed = plain.Evaluate(config, data, 40, &scratch).value();

  SetSimdEnabled(previous);

  EXPECT_EQ(warm.score, cold.score);
  EXPECT_EQ(warm.score, recomputed.score);
  EXPECT_EQ(warm.cv.mean, recomputed.cv.mean);
  EXPECT_EQ(warm.cv.stddev, recomputed.cv.stddev);
  ASSERT_EQ(warm.cv.fold_scores.size(), recomputed.cv.fold_scores.size());
  for (size_t f = 0; f < warm.cv.fold_scores.size(); ++f) {
    EXPECT_EQ(warm.cv.fold_scores[f], recomputed.cv.fold_scores[f])
        << "fold " << f;
  }
}

// ---------------------------------------------------------------------------
// Whole-optimizer bit-exactness: Hyperband and BOHB, cache on vs off, at
// pool sizes 1 and 8. (The SHA variant lives in sha_test.cc.)
// ---------------------------------------------------------------------------

Dataset CacheTestDataset() {
  BlobsSpec spec;
  spec.n = 100;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 13;
  return MakeBlobs(spec).value().Standardized();
}

// A 2x2 space of real model hyperparameters, small enough that Hyperband
// re-samples duplicates across brackets — exactly the repeats the cache
// serves.
ConfigSpace MiniModelSpace() {
  ConfigSpace space;
  std::vector<std::string> layers = {"(4)", "(6)"};
  std::vector<std::string> rates = {"0.01", "0.005"};
  BHPO_CHECK(space.Add("hidden_layer_sizes", layers).ok());
  BHPO_CHECK(space.Add("learning_rate_init", rates).ok());
  return space;
}

void ExpectSameRun(const HpoResult& off, const HpoResult& on,
                   const char* label) {
  EXPECT_TRUE(off.best_config == on.best_config) << label;
  EXPECT_EQ(off.best_score, on.best_score) << label;
  ASSERT_EQ(off.history.size(), on.history.size()) << label;
  for (size_t i = 0; i < off.history.size(); ++i) {
    EXPECT_TRUE(off.history[i].config == on.history[i].config)
        << label << " eval " << i;
    EXPECT_EQ(off.history[i].score, on.history[i].score)
        << label << " eval " << i;
    EXPECT_EQ(off.history[i].budget, on.history[i].budget)
        << label << " eval " << i;
  }
}

enum class Method { kHyperband, kBohb };

// Runs the optimizer twice — once with no cache, once with BOTH cache
// layers wired in (fold-level via StrategyOptions, whole-result via the
// decorator) — and demands bit-identical output.
void CheckCacheTransparency(Method method, size_t threads,
                            const char* label) {
  Dataset data = CacheTestDataset();
  ConfigSpace space = MiniModelSpace();

  auto run = [&](bool use_cache) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    EvalCache cache;
    StrategyOptions options;
    options.factory.max_iter = 5;
    options.cv_pool = pool.get();
    if (use_cache) options.cache = &cache;
    VanillaStrategy inner(options);
    std::unique_ptr<CachingStrategy> caching;
    EvalStrategy* strategy = &inner;
    if (use_cache) {
      caching = std::make_unique<CachingStrategy>(&inner, &cache);
      strategy = caching.get();
    }

    RandomConfigSampler sampler(&space);
    HyperbandOptions hb_options;
    hb_options.pool = pool.get();
    std::unique_ptr<HpoOptimizer> optimizer;
    if (method == Method::kHyperband) {
      optimizer = std::make_unique<Hyperband>(&sampler, strategy, hb_options);
    } else {
      optimizer = std::make_unique<Bohb>(&space, strategy, hb_options);
    }
    Rng rng(31);
    return optimizer->Optimize(data, &rng).value();
  };

  HpoResult off = run(false);
  HpoResult on = run(true);
  ExpectSameRun(off, on, label);
}

TEST(CacheTransparencyTest, HyperbandPool1) {
  CheckCacheTransparency(Method::kHyperband, 1, "hyperband/pool1");
}

TEST(CacheTransparencyTest, HyperbandPool8) {
  CheckCacheTransparency(Method::kHyperband, 8, "hyperband/pool8");
}

TEST(CacheTransparencyTest, BohbPool1) {
  CheckCacheTransparency(Method::kBohb, 1, "bohb/pool1");
}

TEST(CacheTransparencyTest, BohbPool8) {
  CheckCacheTransparency(Method::kBohb, 8, "bohb/pool8");
}

// ---------------------------------------------------------------------------
// Failure semantics: permanent failures are memoized (re-running them would
// fail identically), transient failures are not (a retry may succeed) —
// at the raw store, the fold-cache path and the CachingStrategy decorator.
// ---------------------------------------------------------------------------

TEST(EvalCacheFailureTest, TransientFailedFoldEntryIsAMiss) {
  EvalCache cache;
  cache.InsertFold(1, 2, 0, {0.0, true, /*transient=*/true});
  // Lookup-side bypass: even an inserted transient failure is never served.
  EXPECT_FALSE(cache.LookupFold(1, 2, 0).has_value());

  cache.InsertFold(1, 2, 1, {0.0, true, /*transient=*/false});
  std::optional<EvalCache::FoldScore> hit = cache.LookupFold(1, 2, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->failed);
}

Dataset FailureData() {
  BlobsSpec spec;
  spec.n = 80;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 21;
  return MakeBlobs(spec).value().Standardized();
}

// One deterministic evaluation (fixed eval root / config / budget) through
// a VanillaStrategy wired to `cache` and `faults`, with retries disabled so
// a transient fault immediately becomes a transient fold failure.
EvalResult EvalWithFaults(const Dataset& data, EvalCache* cache,
                          FaultInjector* faults) {
  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");

  StrategyOptions options;
  options.factory.max_iter = 3;
  options.cache = cache;
  options.faults = faults;
  options.guard.max_retries = 0;
  VanillaStrategy strategy(options);
  Rng rng = PerEvalRng(77, config, 40, data.n());
  return strategy.Evaluate(config, data, 40, &rng).value();
}

TEST(EvalCacheFailureTest, TransientFoldFailuresAreNeverMemoized) {
  Dataset data = FailureData();
  FaultInjector transient(
      ParseFaultSpec(
          "rate=1,seed=2,points=fit_throw,permanent=0,transient_attempts=10")
          .value());
  FaultInjector clean;  // Disabled: the fault condition has passed.

  EvalCache cache;
  EvalResult faulted = EvalWithFaults(data, &cache, &transient);
  EXPECT_EQ(faulted.cv.failed_folds, 5u);
  for (const FoldOutcome& fold : faulted.cv.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kFailed);
    EXPECT_TRUE(fold.transient_failure);
  }
  // Nothing was stored: a transient outcome must not be replayable.
  EXPECT_EQ(cache.Stats().insertions, 0u);

  // Next lookup of the same evaluation re-runs every fold and recovers.
  EvalResult recovered = EvalWithFaults(data, &cache, &clean);
  EXPECT_EQ(recovered.cache_fold_hits, 0u);
  EXPECT_EQ(recovered.cv.failed_folds, 0u);

  // Bit-identical to an evaluation that never saw the fault at all.
  EvalCache fresh;
  EvalResult reference = EvalWithFaults(data, &fresh, &clean);
  EXPECT_EQ(recovered.score, reference.score);
  ASSERT_EQ(recovered.cv.fold_scores.size(), reference.cv.fold_scores.size());
  for (size_t f = 0; f < reference.cv.fold_scores.size(); ++f) {
    EXPECT_EQ(recovered.cv.fold_scores[f], reference.cv.fold_scores[f]);
  }
}

TEST(EvalCacheFailureTest, PermanentFoldFailuresAreServedFromCache) {
  Dataset data = FailureData();
  FaultInjector permanent(
      ParseFaultSpec("rate=1,seed=2,points=fit_diverge,permanent=1").value());
  FaultInjector clean;

  EvalCache cache;
  EvalResult first = EvalWithFaults(data, &cache, &permanent);
  EXPECT_EQ(first.cv.failed_folds, 5u);
  for (const FoldOutcome& fold : first.cv.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kFailed);
    EXPECT_FALSE(fold.transient_failure);
  }
  EXPECT_EQ(cache.Stats().insertions, 5u);

  // Replayed without re-running the doomed fits: a deterministic failure
  // is as cacheable as a score.
  EvalResult replay = EvalWithFaults(data, &cache, &clean);
  EXPECT_EQ(replay.cache_fold_hits, 5u);
  EXPECT_EQ(replay.cache_fold_misses, 0u);
  EXPECT_EQ(replay.cv.failed_folds, 5u);
  EXPECT_EQ(replay.cv.mean, -std::numeric_limits<double>::infinity());
}

TEST(EvalCacheFailureTest, QuarantinedFoldsReplayAsQuarantined) {
  Dataset data = FailureData();
  FaultInjector nan_scores(
      ParseFaultSpec("rate=1,seed=2,points=nan_score,permanent=1").value());
  FaultInjector clean;

  EvalCache cache;
  EvalResult first = EvalWithFaults(data, &cache, &nan_scores);
  EXPECT_EQ(first.cv.quarantined_folds, 5u);
  EXPECT_EQ(cache.Stats().insertions, 5u);

  // The stored NaN is re-quarantined on replay — it reaches neither the
  // fold_scores vector nor mu/sigma.
  EvalResult replay = EvalWithFaults(data, &cache, &clean);
  EXPECT_EQ(replay.cache_fold_hits, 5u);
  EXPECT_EQ(replay.cv.quarantined_folds, 5u);
  EXPECT_TRUE(replay.cv.fold_scores.empty());
  EXPECT_EQ(replay.cv.mean, -std::numeric_limits<double>::infinity());
  EXPECT_FALSE(std::isnan(replay.score));
}

TEST(EvalCacheFailureTest, CachingStrategyDoesNotMemoizeTransientFailures) {
  Dataset data = FailureData();
  FaultInjector transient(
      ParseFaultSpec(
          "rate=1,seed=2,points=fit_throw,permanent=0,transient_attempts=10")
          .value());

  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");
  StrategyOptions options;
  options.factory.max_iter = 3;
  options.faults = &transient;
  options.guard.max_retries = 0;
  VanillaStrategy inner(options);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);

  Rng first_rng = PerEvalRng(88, config, 40, data.n());
  EvalResult first = caching.Evaluate(config, data, 40, &first_rng).value();
  EXPECT_FALSE(first.cache_result_hit);
  EXPECT_EQ(first.cv.failed_folds, 5u);
  // The transient-failed result was not stored...
  EXPECT_EQ(cache.Stats().insertions, 0u);

  // ...so the identical evaluation misses and re-runs the inner strategy.
  Rng second_rng = PerEvalRng(88, config, 40, data.n());
  EvalResult second = caching.Evaluate(config, data, 40, &second_rng).value();
  EXPECT_FALSE(second.cache_result_hit);
}

TEST(EvalCacheFailureTest, CachingStrategyMemoizesPermanentFailures) {
  Dataset data = FailureData();
  FaultInjector permanent(
      ParseFaultSpec("rate=1,seed=2,points=fit_diverge,permanent=1").value());

  Configuration config;
  config.Set("hidden_layer_sizes", "(4)");
  config.Set("learning_rate_init", "0.01");
  StrategyOptions options;
  options.factory.max_iter = 3;
  options.faults = &permanent;
  options.guard.max_retries = 0;
  VanillaStrategy inner(options);
  EvalCache cache;
  CachingStrategy caching(&inner, &cache);

  Rng first_rng = PerEvalRng(88, config, 40, data.n());
  EvalResult first = caching.Evaluate(config, data, 40, &first_rng).value();
  EXPECT_FALSE(first.cache_result_hit);
  EXPECT_EQ(first.cv.failed_folds, 5u);

  Rng second_rng = PerEvalRng(88, config, 40, data.n());
  EvalResult second = caching.Evaluate(config, data, 40, &second_rng).value();
  EXPECT_TRUE(second.cache_result_hit);
  EXPECT_EQ(second.cv.failed_folds, 5u);
  EXPECT_EQ(second.score, first.score);
}

}  // namespace
}  // namespace bhpo
