// A small fixed-size thread pool for index-parallel loops and queued
// tasks.
//
// Two consumers share it: the batch analysis drivers (the bench
// harnesses and `cssamec --jobs=N`) that analyze independent programs
// concurrently, and the analysis service (src/service) that schedules
// each incoming request as one task. Two entry points:
//
//   - parallelFor: a fork/join loop with dynamic (work-stealing-style)
//     index distribution. Consumers that need deterministic results
//     write into per-index slots and read them after the join, so the
//     outcome never depends on which worker ran which index.
//   - submit/waitIdle: a FIFO task queue for independent fire-and-forget
//     units (service requests). Tasks may interleave with parallelFor
//     jobs — a worker finishes its current task before joining a loop.
//
// The calling thread participates in parallelFor, so a pool of size 1
// spawns no threads at all: parallelFor degrades to a plain loop and
// submit runs the task inline before returning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cssame::support {

class ThreadPool {
 public:
  /// `workers` is the total worker count including the caller; clamped to
  /// [1, 64]. 0 means defaultWorkers().
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Runs fn(index) for every index in [0, n), distributing indices
  /// dynamically across the pool; blocks until all calls return.
  /// parallelFor establishes a happens-before edge from every fn call to
  /// its own return, so results written by workers are safe to read
  /// after it. Must not be called reentrantly from inside fn.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Enqueues one independent task (FIFO) and returns immediately; a
  /// worker thread runs it as soon as one is free. With a pool of size 1
  /// the task runs inline before submit returns. Tasks must not throw —
  /// an escaping exception terminates the process — and must not call
  /// back into this pool. The destructor drains tasks already queued.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished (queue empty and no
  /// task running). Establishes a happens-before edge from each task's
  /// completion, so results they wrote are safe to read afterwards.
  void waitIdle();

  /// Hardware concurrency clamped into [1, 16] — the default pool size
  /// for batch drivers.
  [[nodiscard]] static unsigned defaultWorkers();

 private:
  void workerLoop();
  void runJob();

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t jobSize_ = 0;
  std::uint64_t generation_ = 0;
  unsigned active_ = 0;
  bool stop_ = false;

  std::deque<std::function<void()>> tasks_;
  /// Tasks queued or currently running (waitIdle waits for 0).
  std::size_t pendingTasks_ = 0;
  std::condition_variable idle_;

  std::atomic<std::size_t> next_{0};
};

}  // namespace cssame::support
