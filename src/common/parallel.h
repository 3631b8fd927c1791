// A small fixed-size thread pool and the ParallelFor used for embarrassingly
// parallel loops: distance-table columns, multi-seed heuristic searches and
// (mapping × load) simulation campaigns.
//
// Design notes (per HPC guidance): parallelism is explicit; tasks must not
// share mutable state, and every stochastic task derives its own RNG stream
// before submission so results are independent of the worker count.
//
// ParallelFor runs on one process-wide pool (hardware_concurrency() − 1
// workers, created on first use) plus the calling thread, so a loop costs a
// few task submissions, not a thread spawn and join. A ParallelFor issued
// from inside a parallel region — any ThreadPool worker, or a thread that is
// already running a ParallelFor — runs inline on that thread (OpenMP's
// default for nested regions), so nesting never oversubscribes the cores.
// That covers the service daemon's request workers, whose request-level
// concurrency already fills the machine.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace commsched {

/// Fixed-size pool of worker threads executing void() tasks FIFO. Tasks
/// must not throw: an exception escaping a task terminates the process, as
/// one escaping a std::thread would.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues a task. Must not be called after destruction has begun.
  void Submit(std::function<void()> task);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

/// Runs body(i) for i in [0, n) on the process-wide pool and the calling
/// thread; blocks until complete. Indices are claimed one at a time from a
/// shared counter. Runs inline for n <= 1, on a single-core machine, and
/// when nested inside a parallel region (see above). The first exception
/// from the body is rethrown on the caller; which other indices still ran
/// is unspecified.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace commsched
