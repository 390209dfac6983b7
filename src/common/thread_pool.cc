#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace bhpo {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  BHPO_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    BHPO_CHECK(!shutting_down_) << "Submit after shutdown";
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::RunOneTaskLocked(std::unique_lock<std::mutex>* lock) {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop();
  lock->unlock();
  task();
  // Destroy the task (and any batch it shares) before retaking the lock.
  task = nullptr;
  lock->lock();
  if (--in_flight_ == 0) all_done_.notify_all();
}

size_t ThreadPool::RunClaims(Batch* batch) {
  size_t ran = 0;
  for (size_t i = batch->next.fetch_add(1); i < batch->n;
       i = batch->next.fetch_add(1)) {
    (*batch->fn)(i);
    ++ran;
  }
  return ran;
}

void ThreadPool::FinishLocked(Batch* batch, size_t ran) {
  batch->finished += ran;
  // The caller waits under mutex_, so it cannot miss this notification.
  if (batch->finished == batch->n) batch->done.notify_all();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.size() == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>(n, &fn);
  size_t helpers = std::min(n - 1, workers_.size());
  {
    std::unique_lock<std::mutex> lock(mutex_);
    BHPO_CHECK(!shutting_down_) << "ParallelFor after shutdown";
    for (size_t h = 0; h < helpers; ++h) {
      tasks_.push([this, batch] {
        size_t ran = RunClaims(batch.get());
        if (ran == 0) return;  // A late token: its batch is fully claimed.
        std::unique_lock<std::mutex> token_lock(mutex_);
        FinishLocked(batch.get(), ran);
      });
    }
    in_flight_ += helpers;
  }
  if (helpers == 1) {
    task_available_.notify_one();
  } else {
    task_available_.notify_all();
  }

  // The caller claims its own indices first. Once none is left it helps
  // with other queued work (its own unpopped tokens included, which find
  // nothing to claim) until the helpers running its last indices finish.
  size_t ran = RunClaims(batch.get());
  std::unique_lock<std::mutex> lock(mutex_);
  FinishLocked(batch.get(), ran);
  while (batch->finished < n && !tasks_.empty()) RunOneTaskLocked(&lock);
  batch->done.wait(lock, [&batch, n] { return batch->finished == n; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    task_available_.wait(
        lock, [this] { return shutting_down_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // Shutting down and fully drained.
    RunOneTaskLocked(&lock);
  }
}

}  // namespace bhpo
