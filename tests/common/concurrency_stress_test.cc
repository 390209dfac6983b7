// Contended stress for the concurrency-bearing pieces: nested
// ThreadPool::ParallelFor (the shape of Hyperband's rung-parallel
// evaluation over fold-parallel CV) and the sharded EvalCache hammered on
// a single shard. These run in tier-1 as plain correctness checks and are
// re-registered by the tsan preset, where -fsanitize=thread turns every
// unsynchronized access into a failure.
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "hpo/eval_cache.h"

namespace bhpo {
namespace {

// Two-level ParallelFor from inside pool workers: outer iterations issue
// inner loops, so workers must run their own inner indices (and other
// queued work) instead of blocking.
void RunNestedParallelFor(size_t pool_size) {
  ThreadPool pool(pool_size);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kOuter, [&](size_t i) {
    pool.ParallelFor(kInner, [&](size_t j) {
      sum.fetch_add(i * kInner + j + 1, std::memory_order_relaxed);
    });
  });
  uint64_t n = kOuter * kInner;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(ConcurrencyStressTest, NestedParallelForPool1) {
  RunNestedParallelFor(1);
}

TEST(ConcurrencyStressTest, NestedParallelForPool8) {
  RunNestedParallelFor(8);
}

TEST(ConcurrencyStressTest, TripleNestedParallelForPool8) {
  ThreadPool pool(8);
  std::atomic<uint64_t> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(8, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(count.load(), 8u * 8u * 8u);
}

TEST(ConcurrencyStressTest, SubmitStormThenWait) {
  ThreadPool pool(8);
  constexpr size_t kTasks = 2000;
  std::atomic<uint64_t> count{0};
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ConcurrencyStressTest, SubmitInterleavedWithParallelFor) {
  ThreadPool pool(8);
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> looped{0};
  for (size_t round = 0; round < 20; ++round) {
    for (size_t i = 0; i < 10; ++i) {
      pool.Submit(
          [&submitted] { submitted.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.ParallelFor(32, [&](size_t) {
      looped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(submitted.load(), 20u * 10u);
  EXPECT_EQ(looped.load(), 20u * 32u);
}

// The single-shard hammer the eval-cache counters were made atomic for:
// 8 concurrent lanes all landing on one shard. Counter totals must add up
// exactly once the lanes quiesce — relaxed increments lose nothing.
void HammerSingleShard(size_t lanes) {
  EvalCacheOptions options;
  options.shards = 1;      // Everything contends on one mutex.
  options.capacity = 512;  // Roomy: no evictions in this test.
  EvalCache cache(options);

  constexpr size_t kIters = 2000;
  constexpr uint64_t kDistinctKeys = 64;
  ThreadPool pool(lanes);
  pool.ParallelFor(lanes, [&](size_t lane) {
    for (size_t i = 0; i < kIters; ++i) {
      uint64_t key = (lane * kIters + i) % kDistinctKeys;
      if (!cache.LookupFold(key, /*subset_id=*/1, /*fold=*/0).has_value()) {
        cache.InsertFold(key, 1, 0, EvalCache::FoldScore{0.5, false});
      }
      if (!cache.LookupResult(key, /*subset_id=*/2).has_value()) {
        cache.InsertResult(key, 2, EvalResult{});
      }
    }
  });

  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.fold_hits + stats.fold_misses, lanes * kIters);
  EXPECT_EQ(stats.result_hits + stats.result_misses, lanes * kIters);
  // Every distinct (key, kind) pair is inserted exactly once: the shard
  // lock makes first-insert unique, and nothing evicts at this capacity.
  EXPECT_EQ(stats.insertions, 2 * kDistinctKeys);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2 * kDistinctKeys);
  EXPECT_EQ(stats.hits() + stats.misses(), 2 * lanes * kIters);
}

TEST(EvalCacheStressTest, SingleShardHammerPool1) { HammerSingleShard(1); }

TEST(EvalCacheStressTest, SingleShardHammerPool8) { HammerSingleShard(8); }

TEST(EvalCacheStressTest, SingleShardHammerUnderEviction) {
  EvalCacheOptions options;
  options.shards = 1;
  options.capacity = 16;  // Far fewer slots than distinct keys: churn.
  EvalCache cache(options);

  constexpr size_t kLanes = 8;
  constexpr size_t kIters = 1500;
  constexpr uint64_t kDistinctKeys = 256;
  ThreadPool pool(kLanes);
  pool.ParallelFor(kLanes, [&](size_t lane) {
    for (size_t i = 0; i < kIters; ++i) {
      uint64_t key = (lane + i * kLanes) % kDistinctKeys;
      if (!cache.LookupFold(key, 1, 0).has_value()) {
        cache.InsertFold(key, 1, 0,
                         EvalCache::FoldScore{static_cast<double>(key), false});
      }
    }
  });

  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.fold_hits + stats.fold_misses, kLanes * kIters);
  // Conservation: whatever was inserted is either resident or evicted.
  EXPECT_EQ(stats.insertions, stats.entries + stats.evictions);
  EXPECT_LE(stats.entries, options.capacity);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(EvalCacheStressTest, StatsReadableWhileWritersRun) {
  EvalCacheOptions options;
  options.shards = 1;
  options.capacity = 64;
  EvalCache cache(options);

  ThreadPool pool(8);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  // One reader lane polls Stats() while the other lanes write; TSan
  // verifies the counters are race-free without a stats mutex.
  pool.ParallelFor(8, [&](size_t lane) {
    if (lane == 0) {
      while (!done.load(std::memory_order_acquire)) {
        EvalCacheStats snapshot = cache.Stats();
        EXPECT_LE(snapshot.entries, options.capacity);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    for (size_t i = 0; i < 3000; ++i) {
      uint64_t key = lane * 10000 + i;
      if (!cache.LookupFold(key, 1, 0).has_value()) {
        cache.InsertFold(key, 1, 0, EvalCache::FoldScore{1.0, false});
      }
    }
    if (lane == 1) done.store(true, std::memory_order_release);
  });
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace bhpo
