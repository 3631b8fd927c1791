// Observability primitives: counters, wall-clock timers, distribution
// histograms and the Registry that aggregates them.
//
// Design constraints (these run inside the Tabu swap loop and the flit-level
// simulator, possibly under common/parallel.h's ThreadPool):
//   * Counter/Timer/Histogram updates are lock-free relaxed atomics — safe
//     to call concurrently from pool workers, and cheap enough that hot
//     loops batch into locals and flush once per run anyway.
//   * Registry lookups take a mutex (name -> slot), so code paths resolve a
//     Counter& once (per run / per scope) and hold the reference; std::map
//     nodes give the references stable addresses for the Registry's lifetime.
//   * Nothing here allocates on the update path.
//
// Reading: Registry::CounterValues()/TimerValues()/HistogramValues()
// snapshot everything, and ToJson() renders the single-line metrics dump the
// CLI's --metrics/--metrics-out flags and the bench harness consume (see
// DESIGN.md §"Observability").
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace commsched::obs {

/// Monotonic event counter. Relaxed atomics: totals are exact, ordering
/// between different counters is not guaranteed mid-run.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock time plus a sample count (mean = total / count).
class Timer {
 public:
  void RecordNanos(std::uint64_t ns) noexcept {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  void Reset() noexcept {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Read-side snapshot of one Timer.
struct TimerSnapshot {
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// Read-side snapshot of one Histogram, with the estimation logic: report
/// renderers and benches derive p50/p90/p99 from the same code path.
struct HistogramSnapshot {
  /// Bucket b holds values whose bit width is b: bucket 0 is exactly {0},
  /// bucket b >= 1 covers [2^(b-1), 2^b - 1].
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // wraps mod 2^64 for astronomically large inputs
  std::uint64_t min = 0;  // 0 when empty
  std::uint64_t max = 0;

  /// Estimated q-quantile (q in [0, 1]): locates the bucket holding the
  /// rank-q sample and interpolates linearly inside it, clamped to the
  /// observed [min, max]. Error is bounded by the bucket width (< 2x the
  /// true value); exact for single-valued distributions. 0 when empty.
  [[nodiscard]] double Percentile(double q) const;

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log2-bucketed distribution of uint64 samples (latencies in
/// cycles, queue occupancies, iteration counts). Fixed 65 buckets — one per
/// possible bit width — so Record() is two relaxed atomic adds plus bounded
/// CAS loops for min/max; no allocation, safe from any thread.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index of `value`: its bit width (0 for value 0).
  [[nodiscard]] static std::size_t BucketOf(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  /// Records `count` occurrences of `value`.
  void Record(std::uint64_t value, std::uint64_t count = 1) noexcept {
    buckets_[BucketOf(value)].fetch_add(count, std::memory_order_relaxed);
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(value * count, std::memory_order_relaxed);
    std::uint64_t seen_min = min_.load(std::memory_order_relaxed);
    while (value < seen_min &&
           !min_.compare_exchange_weak(seen_min, value, std::memory_order_relaxed)) {
    }
    std::uint64_t seen_max = max_.load(std::memory_order_relaxed);
    while (value > seen_max &&
           !max_.compare_exchange_weak(seen_max, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Consistent-enough snapshot: buckets are read one by one, so a snapshot
  /// taken while writers are active may be mid-update; totals are exact once
  /// writers have quiesced (the registry idiom: flush, then read).
  [[nodiscard]] HistogramSnapshot Snapshot() const noexcept {
    HistogramSnapshot snap;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    const std::uint64_t seen_min = min_.load(std::memory_order_relaxed);
    snap.min = snap.count == 0 ? 0 : seen_min;
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
  }

  void Reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Named counters, timers and histograms. Lookup creates on demand; returned
/// references stay valid for the Registry's lifetime. All methods are
/// thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumented subsystem reports into.
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Timer& GetTimer(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Snapshot of every counter (name -> value).
  [[nodiscard]] std::map<std::string, std::uint64_t> CounterValues() const;

  /// Snapshot of every timer (name -> total/count).
  [[nodiscard]] std::map<std::string, TimerSnapshot> TimerValues() const;

  /// Snapshot of every histogram (name -> buckets/count/sum/min/max).
  [[nodiscard]] std::map<std::string, HistogramSnapshot> HistogramValues() const;

  /// Zeroes every counter, timer and histogram (names stay registered).
  void ResetAll();

  /// Single-line JSON dump:
  ///   {"counters":{"name":N,...},
  ///    "timers":{"name":{"total_ns":N,"count":N},...},
  ///    "histograms":{"name":{"count":N,"sum":N,"min":N,"max":N,
  ///                          "mean":X,"p50":X,"p90":X,"p99":X,
  ///                          "buckets":{"B":N,...}},...}}
  /// Histogram "buckets" lists only non-empty buckets (key = bucket index).
  /// Keys are sorted, so output is deterministic given equal values.
  [[nodiscard]] std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  // std::map: node-based, so Counter/Timer/Histogram addresses are stable
  // across inserts (required — callers hold references while others
  // register).
  std::map<std::string, Counter> counters_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace commsched::obs
