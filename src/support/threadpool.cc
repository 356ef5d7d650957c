#include "src/support/threadpool.h"

#include <algorithm>

namespace cssame::support {

unsigned ThreadPool::defaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 16u);
}

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = defaultWorkers();
  workers_ = std::clamp(workers, 1u, 64u);
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w)
    threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::runJob() {
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= jobSize_) return;
    (*job_)(i);
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t seen = 0;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || generation_ != seen || !tasks_.empty();
      });
      if (!tasks_.empty()) {
        // Drain queued tasks even when stopping, so the destructor never
        // drops work that submit() already accepted.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (stop_) {
        return;
      } else {
        seen = generation_;
      }
    }
    if (task) {
      task();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pendingTasks_ == 0) idle_.notify_all();
      continue;
    }
    runJob();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_ == 1) {
    // No worker threads exist; run inline so the task still happens.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pendingTasks_;
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return pendingTasks_ == 0; });
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    jobSize_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<unsigned>(threads_.size());
    ++generation_;
  }
  wake_.notify_all();
  runJob();  // the caller drains indices too
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
  jobSize_ = 0;
}

}  // namespace cssame::support
