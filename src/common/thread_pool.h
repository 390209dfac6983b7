#ifndef BHPO_COMMON_THREAD_POOL_H_
#define BHPO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bhpo {

// Fixed-size worker pool for evaluating independent hyperparameter
// configurations, their cross-validation folds and the trees of one
// ensemble fit in parallel. ParallelFor supports *nested* use on one shared
// pool (configs x folds x trees): every call is a batch of indices that its
// caller and a few helper workers claim from a shared counter, and a caller
// whose indices are all claimed helps with other queued work instead of
// blocking. Work stealing and priorities are intentionally out of scope.
class ThreadPool {
 public:
  // num_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task. Must not be called after Wait() has begun from another
  // thread or after destruction has started.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  // Runs fn(i) for i in [0, n) and blocks until all iterations complete.
  // The caller and at most min(n - 1, num_threads()) queued helper tokens
  // claim indices from one shared counter, so the caller starts on its own
  // batch at once, ahead of any task queued before it. Only once every
  // index is claimed and some are still running elsewhere does the caller
  // run other queued tasks while it waits, which keeps nested calls from a
  // pool worker deadlock free. Falls back to a serial loop when the pool has
  // a single worker or n == 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  // One ParallelFor call. Helper tokens share it through a shared_ptr, so
  // a token popped after its call returned finds no index left and touches
  // only `next`; `fn` is dereferenced only for a claimed index.
  struct Batch {
    Batch(size_t n, const std::function<void(size_t)>* fn) : n(n), fn(fn) {}
    const size_t n;
    const std::function<void(size_t)>* const fn;
    std::atomic<size_t> next{0};
    size_t finished = 0;  // Guarded by mutex_.
    std::condition_variable done;
  };

  void WorkerLoop();
  // Pops and runs the front task. Called (and returns) with *lock held;
  // the lock is released while the task body runs.
  void RunOneTaskLocked(std::unique_lock<std::mutex>* lock);
  // Runs the indices this thread claims from `batch` until none is left and
  // returns how many it ran.
  static size_t RunClaims(Batch* batch);
  // Adds `ran` finished indices to `batch` and wakes its caller when the
  // batch is complete. Called with *lock held.
  static void FinishLocked(Batch* batch, size_t ran);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::queue<std::function<void()>> tasks_;  // Guarded by mutex_.
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;        // Guarded by mutex_.
  bool shutting_down_ = false;  // Guarded by mutex_.
};

}  // namespace bhpo

#endif  // BHPO_COMMON_THREAD_POOL_H_
