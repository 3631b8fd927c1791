// Load generator for the scheduling service (DESIGN.md §10): drives an
// in-process Daemon with batches of mixed JSONL requests and reports
// sustained req/s plus end-to-end latency percentiles. CI runs this with
// --benchmark_format=json into BENCH_service.json and gates the medians
// against bench/baselines/ via tools/bench_compare.
//
// Three operating points:
//   * hot    — caches warmed, mixed schedule/quality/ping traffic; the
//              steady-state serving rate.
//   * cold   — a fresh service per batch, distinct topologies: every
//              request pays routing construction + the O(N²) resistance
//              solves. This is the work the topology cache deletes.
//   * ping   — protocol parse + queue + render only; the transport floor.
//   * hot+windowed — the hot batch with rolling-window metrics recording
//              on and periodic Prometheus exposition renders; CI asserts
//              the observability layer costs <5% of hot throughput.
//
// Batch and artifact-store points (DESIGN.md §14):
//   * batch vs singles — the same 64 hot sub-requests as one batch frame
//              vs 64 daemon round-trips; `batch_speedup_x` is the frame's
//              amortization factor, gated >=3 in CI.
//   * boot cold vs warm — service construction + first requests with an
//              empty artifact store vs one warm-booted from a populated
//              store (no routing or Laplacian re-solve).
//   * parse / render — ParseRequest of one 64-entry batch frame, and
//              Execute of that frame on warm caches: the two protocol
//              layers of a hot frame, without the daemon.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/commsched.h"

namespace {

using namespace commsched;

std::string ScheduleRequest(std::uint64_t id, std::uint64_t topo_seed, std::size_t switches,
                            const std::string& algo) {
  JsonObjectWriter topology;
  topology.Field("kind", "random");
  topology.Field("switches", static_cast<std::uint64_t>(switches));
  topology.Field("seed", topo_seed);
  JsonObjectWriter request;
  request.Field("id", "s" + std::to_string(id));
  request.Field("op", "schedule");
  request.Raw("topology", topology.Finish());
  request.Field("apps", static_cast<std::uint64_t>(4));
  request.Field("algo", algo);
  return request.Finish();
}

std::string PingRequest(std::uint64_t id) {
  JsonObjectWriter request;
  request.Field("id", "p" + std::to_string(id));
  request.Field("op", "ping");
  return request.Finish();
}

/// The hot-path batch: mixed ops over a small pool of topologies, so the
/// model cache converges to all-hits after the first round.
std::vector<std::string> MixedBatch(std::size_t size) {
  std::vector<std::string> batch;
  batch.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    switch (i % 4) {
      case 0:
        batch.push_back(ScheduleRequest(i, 1 + i % 3, 12, "tabu"));
        break;
      case 1:
        batch.push_back(ScheduleRequest(i, 1 + i % 3, 12, "sd"));
        break;
      case 2:
        batch.push_back(ScheduleRequest(i, 1 + i % 3, 12, "random"));
        break;
      default:
        batch.push_back(PingRequest(i));
        break;
    }
  }
  return batch;
}

/// Runs one batch through a fresh Daemon (the service — and so the caches —
/// is owned by the caller) and returns the number of responses.
std::size_t ServeBatch(svc::SchedulingService& service, const std::vector<std::string>& batch,
                       std::size_t queue_capacity, bool windowed_metrics = false) {
  svc::DaemonOptions options;
  options.queue_capacity = queue_capacity;
  options.windowed_metrics = windowed_metrics;
  svc::Daemon daemon(service, options);
  std::atomic<std::size_t> responses{0};
  for (const std::string& line : batch) {
    daemon.Submit(line, [&responses](const std::string&) {
      responses.fetch_add(1, std::memory_order_relaxed);
    });
  }
  daemon.Drain();
  return responses.load(std::memory_order_relaxed);
}

void ReportLatencyPercentiles(benchmark::State& state) {
  state.counters["latency_p50_us"] =
      benchmark::Counter(bench::HistogramPercentile("svc.latency_ns", 0.50) / 1000.0);
  state.counters["latency_p99_us"] =
      benchmark::Counter(bench::HistogramPercentile("svc.latency_ns", 0.99) / 1000.0);
}

void BM_ServiceMixedHot(benchmark::State& state) {
  const std::vector<std::string> batch = MixedBatch(static_cast<std::size_t>(state.range(0)));
  svc::SchedulingService service;
  // Warm the caches outside the measured region: steady state is the point.
  ServeBatch(service, batch, batch.size());
  std::size_t responses = 0;
  for (auto _ : state) {
    responses += ServeBatch(service, batch, batch.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
  ReportLatencyPercentiles(state);
}
BENCHMARK(BM_ServiceMixedHot)->Arg(32)->Unit(benchmark::kMillisecond);

/// The hot batch with the full observability layer engaged: rolling-window
/// recording per request plus a Prometheus scrape every 256 batches (~8k
/// requests, >100x denser than a 1 Hz production scraper at this
/// throughput). CI gates req_per_sec at >=95% of BM_ServiceMixedHot's.
void BM_ServiceMixedHotWindowed(benchmark::State& state) {
  const std::vector<std::string> batch = MixedBatch(static_cast<std::size_t>(state.range(0)));
  svc::SchedulingService service;
  ServeBatch(service, batch, batch.size(), /*windowed_metrics=*/true);
  std::size_t responses = 0;
  std::size_t exposition_bytes = 0;
  std::size_t batches = 0;
  for (auto _ : state) {
    responses += ServeBatch(service, batch, batch.size(), /*windowed_metrics=*/true);
    if (++batches % 256 == 0) {
      const std::string scrape = service.MetricsText();
      benchmark::DoNotOptimize(scrape.data());
      exposition_bytes = scrape.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
  state.counters["exposition_bytes"] = benchmark::Counter(static_cast<double>(exposition_bytes));
  ReportLatencyPercentiles(state);
}
BENCHMARK(BM_ServiceMixedHotWindowed)->Arg(32)->Unit(benchmark::kMillisecond);

/// Paired measurement of the windowing cost: every iteration serves the same
/// batch twice back-to-back — windowed metrics off, then on — so machine
/// drift on any timescale longer than a batch (~tens of microseconds)
/// cancels out of the comparison. The `windowed_overhead_pct` counter is the
/// headline number CI gates at <5; the separate BM_ServiceMixedHot* entries
/// above keep absolute throughput comparable against the baselines.
void BM_ServiceWindowedOverheadPaired(benchmark::State& state) {
  const std::vector<std::string> batch = MixedBatch(static_cast<std::size_t>(state.range(0)));
  svc::SchedulingService service;
  ServeBatch(service, batch, batch.size(), /*windowed_metrics=*/true);
  std::uint64_t hot_ns = 0;
  std::uint64_t windowed_ns = 0;
  std::size_t responses = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    responses += ServeBatch(service, batch, batch.size(), /*windowed_metrics=*/false);
    const auto t1 = std::chrono::steady_clock::now();
    responses += ServeBatch(service, batch, batch.size(), /*windowed_metrics=*/true);
    const auto t2 = std::chrono::steady_clock::now();
    hot_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    windowed_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["windowed_overhead_pct"] = benchmark::Counter(
      hot_ns == 0 ? 0.0
                  : (static_cast<double>(windowed_ns) - static_cast<double>(hot_ns)) * 100.0 /
                        static_cast<double>(hot_ns));
}
BENCHMARK(BM_ServiceWindowedOverheadPaired)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ServiceColdModels(benchmark::State& state) {
  std::uint64_t topo_seed = 100;  // never repeats: every batch misses the cache
  std::size_t responses = 0;
  for (auto _ : state) {
    svc::SchedulingService service;
    std::vector<std::string> batch;
    for (std::uint64_t i = 0; i < 8; ++i) {
      batch.push_back(ScheduleRequest(i, ++topo_seed, 12, "sd"));
    }
    responses += ServeBatch(service, batch, batch.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
  ReportLatencyPercentiles(state);
}
BENCHMARK(BM_ServiceColdModels)->Unit(benchmark::kMillisecond);

void BM_ServicePingFloor(benchmark::State& state) {
  std::vector<std::string> batch;
  for (std::uint64_t i = 0; i < 64; ++i) batch.push_back(PingRequest(i));
  svc::SchedulingService service;
  std::size_t responses = 0;
  for (auto _ : state) {
    responses += ServeBatch(service, batch, batch.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServicePingFloor)->Unit(benchmark::kMillisecond);

/// Wraps request lines into one batch frame.
std::string BatchFrame(const std::string& frame_id, const std::vector<std::string>& lines) {
  std::string frame = R"({"id":")" + frame_id + R"(","op":"batch","requests":[)";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) frame += ",";
    frame += lines[i];
  }
  frame += "]}";
  return frame;
}

/// Paired measurement of the batch protocol's amortization: each iteration
/// serves the same 512 hot sub-requests twice — as 512 single lines, then
/// as 8 frames of 64 — through one daemon each, so the daemon construction
/// cost is identical on both sides and cancels. `batch_speedup_x` is
/// singles-time over batch-time for identical work; CI gates it at >=3.
void BM_ServiceBatchVsSingles(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::vector<std::string> base = MixedBatch(size);
  std::vector<std::string> singles;
  std::vector<std::string> frames;
  for (int i = 0; i < 8; ++i) {
    singles.insert(singles.end(), base.begin(), base.end());
    frames.push_back(BatchFrame("f" + std::to_string(i), base));
  }
  svc::SchedulingService service;
  ServeBatch(service, base, size);  // warm the model/result caches
  std::uint64_t singles_ns = 0;
  std::uint64_t batch_ns = 0;
  std::size_t responses = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    responses += ServeBatch(service, singles, singles.size());
    const auto t1 = std::chrono::steady_clock::now();
    responses += size * ServeBatch(service, frames, frames.size());
    const auto t2 = std::chrono::steady_clock::now();
    singles_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    batch_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["batch_speedup_x"] = benchmark::Counter(
      batch_ns == 0 ? 0.0
                    : static_cast<double>(singles_ns) / static_cast<double>(batch_ns));
}
BENCHMARK(BM_ServiceBatchVsSingles)->Arg(64)->Unit(benchmark::kMillisecond);

/// The protocol side of one hot batch frame, no daemon around it:
/// ParseRequest of the 64-entry MixedBatch frame (the JSON parse plus the
/// per-entry Request build).
void BM_ParseBatchFrame(benchmark::State& state) {
  const std::string frame = BatchFrame("f", MixedBatch(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc::ParseRequest(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ParseBatchFrame)->Arg(64)->Unit(benchmark::kMicrosecond);

/// The reply side: Execute of the same frame, parsed once, on a warmed
/// service, so every entry is a cache read and the time is the lookups and
/// the reply rendering.
void BM_RenderHotBatch(benchmark::State& state) {
  const svc::Request frame =
      svc::ParseRequest(BatchFrame("f", MixedBatch(static_cast<std::size_t>(state.range(0)))));
  svc::SchedulingService service;
  benchmark::DoNotOptimize(service.Execute(frame));  // warm the caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Execute(frame));
  }
}
BENCHMARK(BM_RenderHotBatch)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Distinct-topology schedule requests (the boot benches below pay a full
/// solve per topology when cold and zero when warm).
std::vector<std::string> DistinctTopologyBatch(std::size_t count) {
  std::vector<std::string> batch;
  for (std::uint64_t i = 0; i < count; ++i) {
    batch.push_back(ScheduleRequest(i, 1000 + i, 12, "sd"));
  }
  return batch;
}

/// Service construction + 4 distinct-topology requests against an empty
/// artifact store: every request is a cold routing + resistance solve (plus
/// the artifact encode/write). The floor BM_ServiceBootWarm deletes.
void BM_ServiceBootCold(benchmark::State& state) {
  const std::vector<std::string> batch = DistinctTopologyBatch(4);
  const std::string dir = std::filesystem::temp_directory_path() / "commsched_bench_boot_cold";
  std::size_t responses = 0;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);  // a genuinely cold store every time
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::SchedulingService service(options);
    responses += ServeBatch(service, batch, batch.size());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceBootCold)->Unit(benchmark::kMillisecond);

/// The same construction + requests warm-booted from a store populated once
/// outside the measured region: models decode from disk at boot, the
/// requests are pure cache hits, and zero solves run (the restart path the
/// CI warm-restart gate asserts on).
void BM_ServiceBootWarm(benchmark::State& state) {
  const std::vector<std::string> batch = DistinctTopologyBatch(4);
  const std::string dir = std::filesystem::temp_directory_path() / "commsched_bench_boot_warm";
  std::filesystem::remove_all(dir);
  {
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::SchedulingService seeder(options);
    ServeBatch(seeder, batch, batch.size());
  }
  std::size_t responses = 0;
  for (auto _ : state) {
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::SchedulingService service(options);
    responses += ServeBatch(service, batch, batch.size());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["req_per_sec"] =
      benchmark::Counter(static_cast<double>(responses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceBootWarm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
