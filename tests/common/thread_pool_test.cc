#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, SingleWorkerFallbackIsSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(10, [&order](size_t i) {
    order.push_back(static_cast<int>(i));  // Safe: serial path.
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// A ParallelFor issued from inside a pool worker must complete instead of
// deadlocking: the worker claims its own indices, then helps with queued
// work while the rest of its batch runs elsewhere.
// 8 outer tasks each spawning 16 inner iterations on 4 threads guarantees
// every worker is inside a nested call at some point.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(4);
  std::atomic<int> inner_hits{0};
  pool.ParallelFor(8, [&pool, &inner_hits](size_t) {
    pool.ParallelFor(16, [&inner_hits](size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 8 * 16);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.ParallelFor(4, [&pool, &hits](size_t) {
    pool.ParallelFor(4, [&pool, &hits](size_t) {
      pool.ParallelFor(4, [&hits](size_t) { hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(hits.load(), 4 * 4 * 4);
}

// Three levels of nesting (configs x folds x trees) on small and large
// pools: every innermost index runs exactly once.
TEST(ThreadPoolTest, ThreeDeepNestingRunsEveryIndexOnce) {
  for (size_t workers : {2u, 8u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    constexpr size_t kOuter = 5, kMiddle = 6, kInner = 7;
    std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
    pool.ParallelFor(kOuter, [&](size_t a) {
      pool.ParallelFor(kMiddle, [&](size_t b) {
        pool.ParallelFor(kInner, [&](size_t c) {
          hits[(a * kMiddle + b) * kInner + c].fetch_add(1);
        });
      });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// Blocks until Release(); Arrive() lets the test wait for the blocker to
// occupy its worker.
class Gate {
 public:
  void Arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++arrived_;
    changed_.notify_all();
  }
  void AwaitArrivals(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return arrived_ >= count; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    changed_.notify_all();
  }
  void AwaitRelease() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int arrived_ = 0;
  bool open_ = false;
};

// Set while a thread is inside the test's nested ParallelFor call.
thread_local bool t_in_nested_call = false;

// A worker that issues a nested ParallelFor starts on its own indices, even
// when unrelated tasks were queued before them. The other worker is
// blocked, so the nested caller must run all of its indices itself; a
// foreign task that runs inside the call (marker set) before they are
// done would delay the caller's batch behind unrelated work.
TEST(ThreadPoolTest, NestedCallerRunsOwnIndicesBeforeForeignTasks) {
  ThreadPool pool(2);
  Gate blocker;
  Gate queued;
  constexpr int kOwn = 8;
  std::atomic<int> own_done{0};
  std::atomic<int> foreign_early{0};
  std::atomic<int> foreign_runs{0};

  pool.Submit([&] {
    blocker.Arrive();
    blocker.AwaitRelease();
  });
  blocker.AwaitArrivals(1);
  pool.Submit([&] {
    queued.Arrive();
    queued.AwaitRelease();
    t_in_nested_call = true;
    pool.ParallelFor(kOwn, [&](size_t) { own_done.fetch_add(1); });
    t_in_nested_call = false;
  });
  queued.AwaitArrivals(1);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      if (t_in_nested_call && own_done.load() < kOwn) foreign_early.fetch_add(1);
      foreign_runs.fetch_add(1);
    });
  }
  queued.Release();  // The nested call now queues its tokens behind these.
  while (own_done.load() < kOwn) std::this_thread::yield();
  blocker.Release();
  pool.Wait();
  EXPECT_EQ(own_done.load(), kOwn);
  EXPECT_EQ(foreign_runs.load(), 4);
  EXPECT_EQ(foreign_early.load(), 0);
}

// Many short calls while every worker is busy: the caller runs each batch
// itself and returns, and the batch's helper tokens are popped only later,
// after their call is gone. Half the calls are made with the workers
// blocked, half while they drain the stale tokens concurrently.
TEST(ThreadPoolTest, LateTokensOutliveTheirCalls) {
  constexpr size_t kWorkers = 4;
  constexpr int kCalls = 10000;
  constexpr size_t kWidth = 4;
  ThreadPool pool(kWorkers);
  Gate blocker;
  for (size_t w = 0; w < kWorkers; ++w) {
    pool.Submit([&] {
      blocker.Arrive();
      blocker.AwaitRelease();
    });
  }
  blocker.AwaitArrivals(static_cast<int>(kWorkers));
  std::atomic<int> hits{0};
  for (int call = 0; call < kCalls; ++call) {
    if (call == kCalls / 2) blocker.Release();
    std::vector<int> slots(kWidth, 0);
    pool.ParallelFor(kWidth, [&](size_t i) {
      ++slots[i];
      hits.fetch_add(1);
    });
    for (int slot : slots) ASSERT_EQ(slot, 1);
  }
  pool.Wait();
  EXPECT_EQ(hits.load(), kCalls * static_cast<int>(kWidth));
}

TEST(ThreadPoolTest, DestructionJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace bhpo
