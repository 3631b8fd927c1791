#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace commsched {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultsToHardwareThreads) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  bool touched = false;
  ParallelFor(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SingleIteration) {
  std::atomic<int> count{0};
  ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, ConvenienceOverloadComputesCorrectSum) {
  std::vector<long> squares(500);
  ParallelFor(squares.size(), [&](std::size_t i) { squares[i] = static_cast<long>(i * i); });
  long sum = std::accumulate(squares.begin(), squares.end(), 0L);
  long expected = 0;
  for (long i = 0; i < 500; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ParallelFor, ExceptionInBodyPropagates) {
  EXPECT_THROW(ParallelFor(100,
                           [](std::size_t i) {
                             if (i == 57) throw std::logic_error("bad index");
                           }),
               std::logic_error);
}

TEST(ParallelFor, ExceptionLeavesThePoolUsable) {
  EXPECT_THROW(ParallelFor(64, [](std::size_t) { throw std::runtime_error("task failed"); }),
               std::runtime_error);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, MoreTasksThanThreads) {
  std::atomic<long> sum{0};
  ParallelFor(10000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

// Every index of the inner loop must run on the thread that issued it.
void ExpectInnerLoopInline(std::atomic<int>& off_thread, std::atomic<int>& visited) {
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    visited.fetch_add(1);
  });
}

TEST(ParallelFor, NestedInParallelForRunsInline) {
  std::atomic<int> off_thread{0};
  std::atomic<int> visited{0};
  ParallelFor(8, [&](std::size_t) { ExpectInnerLoopInline(off_thread, visited); });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(visited.load(), 8 * 16);
}

TEST(ParallelFor, NestedInSubmittedTaskRunsInline) {
  std::atomic<int> off_thread{0};
  std::atomic<int> visited{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 4; ++t) {
      pool.Submit([&] { ExpectInnerLoopInline(off_thread, visited); });
    }
  }
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(visited.load(), 4 * 16);
}

// The loops share one pool: no thread is spawned per call.
TEST(ParallelFor, BackToBackCallsReuseThreads) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int call = 0; call < 200; ++call) {
    ParallelFor(32, [&](std::size_t) {
      std::lock_guard lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(ids.size(), cores);
}

}  // namespace
}  // namespace commsched
