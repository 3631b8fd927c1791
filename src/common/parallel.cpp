#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace commsched {

namespace {

// True on ThreadPool workers, and on a caller while it runs a ParallelFor:
// a ParallelFor issued here runs inline.
thread_local bool t_in_parallel_region = false;

// One ParallelFor call: the index counter its participants claim from, and
// the latch the caller waits on. Shared with the helper tasks, which may
// start after the call has returned; such a helper claims no index and
// never touches `body`.
class Loop {
 public:
  Loop(std::size_t n, const std::function<void(std::size_t)>& body) : n_(n), body_(&body) {}

  // Claims and runs indices until none are left.
  void Run() {
    std::size_t ran = 0;
    for (std::size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < n_; ++ran) {
      try {
        (*body_)(i);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard lock(mutex_);
    done_ += ran;
    if (done_ == n_) all_done_.notify_all();
  }

  // Blocks until every index has run; rethrows the first exception.
  void Wait() {
    std::unique_lock lock(mutex_);
    all_done_.wait(lock, [this] { return done_ == n_; });
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  const std::size_t n_;
  const std::function<void(std::size_t)>* body_;
  std::atomic<std::size_t> next_{0};
  std::mutex mutex_;
  std::condition_variable all_done_;
  std::size_t done_ = 0;  // guarded by mutex_
  std::exception_ptr first_error_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    CS_CHECK(!shutting_down_, "Submit after ThreadPool shutdown");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body) {
  const std::size_t cores = std::thread::hardware_concurrency();
  if (n <= 1 || cores <= 1 || t_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  static ThreadPool pool(cores - 1);
  auto loop = std::make_shared<Loop>(n, body);
  const std::size_t helpers = std::min(n - 1, pool.thread_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.Submit([loop] { loop->Run(); });
  }
  t_in_parallel_region = true;
  loop->Run();
  t_in_parallel_region = false;
  loop->Wait();
}

}  // namespace commsched
