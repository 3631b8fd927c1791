// The obs layer: counters/timers/Registry semantics, JSONL tracer output,
// and — the part that must not be taken on faith — exact totals when the
// primitives are hammered from ThreadPool workers concurrently.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "jsonl_test_util.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace commsched {
namespace {

using obs::Counter;
using obs::Registry;
using obs::TimerSnapshot;
using obs::TraceEvent;
using obs::Tracer;

TEST(Counter, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Timer, RecordsTotalsAndCount) {
  obs::Timer timer;
  timer.RecordNanos(100);
  timer.RecordNanos(250);
  EXPECT_EQ(timer.total_ns(), 350u);
  EXPECT_EQ(timer.count(), 2u);
}

TEST(RegistryTest, LookupCreatesAndReusesSlots) {
  Registry registry;
  Counter& a = registry.GetCounter("a");
  a.Add(3);
  EXPECT_EQ(&registry.GetCounter("a"), &a);
  EXPECT_EQ(registry.CounterValues().at("a"), 3u);
  registry.ResetAll();
  EXPECT_EQ(registry.CounterValues().at("a"), 0u);
}

TEST(RegistryTest, ToJsonIsParseable) {
  Registry registry;
  registry.GetCounter("x.count").Add(7);
  registry.GetTimer("x.time").RecordNanos(123);
  const JsonValue fields = ParseJson(registry.ToJson());
  ASSERT_TRUE(fields.is_object());
  const JsonValue& counters = testutil::Member(fields, "counters");
  ASSERT_TRUE(counters.is_object());
  EXPECT_EQ(testutil::Member(counters, "x.count").AsUint("x.count"), 7u);
  const JsonValue& timers = testutil::Member(fields, "timers");
  ASSERT_TRUE(timers.is_object());
  const JsonValue& x_time = testutil::Member(timers, "x.time");
  ASSERT_TRUE(x_time.is_object());
  EXPECT_EQ(testutil::Member(x_time, "total_ns").AsUint("total_ns"), 123u);
  EXPECT_EQ(testutil::Member(x_time, "count").AsUint("count"), 1u);
}

// The satellite concurrency requirement: pool workers increment shared
// counters (racing on first-touch registration too) and every increment
// must land — no lost updates.
TEST(RegistryTest, ConcurrentCountersAreExact) {
  Registry registry;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncrementsPerTask = 10000;
  {
    ThreadPool pool(8);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([&registry, t] {
        // Resolve through the registry every time for half the tasks (lookup
        // contention) and once for the other half (the hot-loop idiom).
        if (t % 2 == 0) {
          for (std::size_t i = 0; i < kIncrementsPerTask; ++i) {
            registry.GetCounter("shared").Add();
          }
        } else {
          Counter& shared = registry.GetCounter("shared");
          Counter& mine = registry.GetCounter("task." + std::to_string(t));
          for (std::size_t i = 0; i < kIncrementsPerTask; ++i) {
            shared.Add();
            mine.Add();
          }
        }
      });
    }
  }  // the pool drains every task before joining
  const auto values = registry.CounterValues();
  EXPECT_EQ(values.at("shared"), kTasks * kIncrementsPerTask);
  for (std::size_t t = 1; t < kTasks; t += 2) {
    EXPECT_EQ(values.at("task." + std::to_string(t)), kIncrementsPerTask);
  }
}

TEST(RegistryTest, ConcurrentTimersCountEverySample) {
  Registry registry;
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kSamplesPerTask = 2000;
  {
    ThreadPool pool(8);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([&registry] {
        obs::Timer& timer = registry.GetTimer("work");
        for (std::size_t i = 0; i < kSamplesPerTask; ++i) {
          timer.RecordNanos(3);
        }
      });
    }
  }  // the pool drains every task before joining
  const TimerSnapshot snapshot = registry.TimerValues().at("work");
  EXPECT_EQ(snapshot.count, kTasks * kSamplesPerTask);
  EXPECT_EQ(snapshot.total_ns, 3u * kTasks * kSamplesPerTask);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b = bit width of the value: 0 -> bucket 0, [2^(b-1), 2^b - 1] -> b.
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf((std::uint64_t{1} << 32) - 1), 32u);
  EXPECT_EQ(obs::Histogram::BucketOf(std::uint64_t{1} << 32), 33u);
  EXPECT_EQ(obs::Histogram::BucketOf(~std::uint64_t{0}), 64u);

  obs::Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(~std::uint64_t{0});
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[64], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, ~std::uint64_t{0});
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  const obs::HistogramSnapshot snap = obs::Histogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, SingleValueDistributionIsExact) {
  // Clamping to [min, max] makes every percentile of a constant exact.
  obs::Histogram histogram;
  histogram.Record(42, 1000);
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 42000u);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 42.0);
}

TEST(HistogramTest, PercentileAccuracyOnUniformData) {
  // 1..1000 recorded once each. Log2 bucketing bounds the error by the
  // holding bucket's range, so each estimate must land inside the bucket of
  // the true quantile and percentiles must be monotone in q.
  obs::Histogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  const struct {
    double q;
    double truth;
  } cases[] = {{0.50, 500.5}, {0.90, 900.1}, {0.99, 990.01}};
  double previous = 0.0;
  for (const auto& c : cases) {
    const double estimate = snap.Percentile(c.q);
    const double bucket_lo =
        std::exp2(std::floor(std::log2(c.truth)));  // bucket holding `truth`
    EXPECT_GE(estimate, bucket_lo) << "q=" << c.q;
    EXPECT_LE(estimate, 2.0 * bucket_lo - 1.0 + 1e-9) << "q=" << c.q;
    EXPECT_LT(std::abs(estimate - c.truth) / c.truth, 1.0) << "q=" << c.q;
    EXPECT_GE(estimate, previous);
    previous = estimate;
  }
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  obs::Registry registry;
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kSamplesPerTask = 5000;
  {
    ThreadPool pool(8);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([&registry, t] {
        obs::Histogram& histogram = registry.GetHistogram("latency");
        for (std::size_t i = 0; i < kSamplesPerTask; ++i) {
          histogram.Record(t * kSamplesPerTask + i);
        }
      });
    }
  }  // the pool drains every task before joining
  const obs::HistogramSnapshot snap = registry.HistogramValues().at("latency");
  constexpr std::uint64_t kTotal = kTasks * kSamplesPerTask;
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kTotal - 1);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : snap.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(RegistryTest, ResetAllClearsHistograms) {
  Registry registry;
  registry.GetHistogram("h").Record(7);
  registry.ResetAll();
  const obs::HistogramSnapshot snap = registry.HistogramValues().at("h");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  // The slot survives the reset and keeps recording.
  registry.GetHistogram("h").Record(3);
  EXPECT_EQ(registry.HistogramValues().at("h").count, 1u);
}

TEST(RegistryTest, ToJsonIncludesHistogramPercentiles) {
  Registry registry;
  obs::Histogram& histogram = registry.GetHistogram("net.latency");
  histogram.Record(5, 100);
  const JsonValue fields = ParseJson(registry.ToJson());
  ASSERT_TRUE(fields.is_object());
  const JsonValue& histograms = testutil::Member(fields, "histograms");
  ASSERT_TRUE(histograms.is_object());
  const JsonValue& latency = testutil::Member(histograms, "net.latency");
  ASSERT_TRUE(latency.is_object());
  EXPECT_EQ(testutil::Member(latency, "count").AsUint("count"), 100u);
  EXPECT_EQ(testutil::Member(latency, "sum").AsUint("sum"), 500u);
  EXPECT_EQ(testutil::Member(latency, "min").AsUint("min"), 5u);
  EXPECT_EQ(testutil::Member(latency, "max").AsUint("max"), 5u);
  EXPECT_EQ(testutil::Member(latency, "p50").AsDouble("p50"), 5.0);
  EXPECT_EQ(testutil::Member(latency, "p99").AsDouble("p99"), 5.0);
  const JsonValue& buckets = testutil::Member(latency, "buckets");
  ASSERT_TRUE(buckets.is_object());
  EXPECT_EQ(testutil::Member(buckets, "3").AsUint("3"), 100u);  // 5 has bit width 3
  EXPECT_EQ(buckets.AsObject("buckets").size(), 1u);  // empty buckets are omitted
}

TEST(TracerTest, EmitsOneValidJsonObjectPerLine) {
  std::ostringstream out;
  Tracer tracer(out);
  tracer.Emit(TraceEvent("unit.test").F("n", 3).F("x", 1.5).F("ok", true).F("s", "a\"b"));
  tracer.Emit(TraceEvent("unit.test").F("n", 4));
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const JsonValue fields = ParseJson(line);
    ASSERT_TRUE(fields.is_object()) << line;
    EXPECT_EQ(testutil::Member(fields, "seq").AsUint("seq"), count);
    EXPECT_EQ(testutil::Member(fields, "type").AsString("type"), "unit.test");
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(tracer.emitted(), 2u);
  // The escaped string survives round-tripping.
  EXPECT_NE(out.str().find("\"s\":\"a\\\"b\""), std::string::npos);
}

TEST(TracerTest, DisabledByDefaultAndScopedInstall) {
  EXPECT_EQ(obs::ActiveTracer(), nullptr);
  std::ostringstream out;
  Tracer tracer(out);
  {
    const obs::ScopedTracer scope(tracer);
    EXPECT_EQ(obs::ActiveTracer(), &tracer);
  }
  EXPECT_EQ(obs::ActiveTracer(), nullptr);
}

TEST(TracerTest, NestedScopedTracersRestoreThePreviousOne) {
  std::ostringstream out_a;
  std::ostringstream out_b;
  Tracer outer(out_a);
  Tracer inner(out_b);
  {
    const obs::ScopedTracer outer_scope(outer);
    {
      const obs::ScopedTracer inner_scope(inner);
      EXPECT_EQ(obs::ActiveTracer(), &inner);
    }
    // The inner scope must restore the outer tracer, not uninstall tracing.
    EXPECT_EQ(obs::ActiveTracer(), &outer);
  }
  EXPECT_EQ(obs::ActiveTracer(), nullptr);
}

// Concurrent emitters: every event becomes exactly one intact line (no
// interleaving, no loss) and sequence numbers are a permutation of 0..N-1.
TEST(TracerTest, ConcurrentEmitsNeverInterleave) {
  std::ostringstream out;
  Tracer tracer(out);
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kEventsPerTask = 500;
  {
    ThreadPool pool(8);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([&tracer, t] {
        for (std::size_t i = 0; i < kEventsPerTask; ++i) {
          tracer.Emit(TraceEvent("concurrent").F("task", t).F("i", i));
        }
      });
    }
  }  // the pool drains every task before joining
  std::istringstream lines(out.str());
  std::string line;
  std::vector<bool> seen(kTasks * kEventsPerTask, false);
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const JsonValue fields = ParseJson(line);
    ASSERT_TRUE(fields.is_object()) << line;
    const std::uint64_t seq = testutil::Member(fields, "seq").AsUint("seq");
    ASSERT_LT(seq, seen.size());
    EXPECT_FALSE(seen[seq]);
    seen[seq] = true;
    ++count;
  }
  EXPECT_EQ(count, kTasks * kEventsPerTask);
}

}  // namespace
}  // namespace commsched
