#pragma once

// Fixed-size thread pool with a FIFO work queue — the execution substrate
// of the query engine. Deliberately minimal: submit() enqueues a task,
// wait_idle() blocks until every submitted task has finished, and the
// destructor drains the queue before joining. Tasks must not throw (the
// engine catches per-query exceptions and folds them into the Verdict).
//
// With zero workers the pool degrades to synchronous execution: submit()
// runs the task inline. That mode is what makes `Engine` with jobs=1
// bit-identical to a plain sequential loop and keeps single-threaded
// callers free of any thread overhead. Workers start on the first submit(),
// so a pool nobody submits to costs no threads.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rlv {

class ThreadPool {
 public:
  /// `num_workers` threads, spawned by the first submit(); 0 means run
  /// tasks inline on submit().
  explicit ThreadPool(std::size_t num_workers) : size_(num_workers) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t num_workers() const { return size_; }

  /// Enqueues a task (runs it inline when the pool has no workers).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  const std::size_t size_;
  std::vector<std::thread> workers_;
};

}  // namespace rlv
