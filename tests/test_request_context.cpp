// Request-scoped observability (obs/request.h): context install/restore,
// stage accounting, automatic request-id tagging of trace events and spans,
// and the daemon-level timings contract (stages sum exactly to the total).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/request.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/service.h"

namespace commsched {
namespace {

using obs::RequestContext;
using obs::RequestStage;
using obs::ScopedRequestContext;

TEST(RequestContextTest, NoContextByDefault) {
  EXPECT_EQ(RequestContext::Current(), nullptr);
}

TEST(RequestContextTest, ScopedInstallAndNesting) {
  RequestContext outer("outer");
  {
    const ScopedRequestContext outer_scope(outer);
    EXPECT_EQ(RequestContext::Current(), &outer);
    RequestContext inner("inner");
    {
      const ScopedRequestContext inner_scope(inner);
      EXPECT_EQ(RequestContext::Current(), &inner);
    }
    EXPECT_EQ(RequestContext::Current(), &outer);
  }
  EXPECT_EQ(RequestContext::Current(), nullptr);
}

TEST(RequestContextTest, StagesAccumulate) {
  RequestContext context("r");
  context.AddStageNanos(RequestStage::kQueue, 100);
  context.AddStageNanos(RequestStage::kQueue, 50);
  context.AddStageNanos(RequestStage::kSearch, 1000);
  EXPECT_EQ(context.stage_ns(RequestStage::kQueue), 150u);
  EXPECT_EQ(context.stage_ns(RequestStage::kSearch), 1000u);
  EXPECT_EQ(context.InstrumentedNanos(), 1150u);
  // kOther is the rendered remainder, not part of the instrumented sum.
  context.AddStageNanos(RequestStage::kOther, 77);
  EXPECT_EQ(context.InstrumentedNanos(), 1150u);
}

TEST(RequestContextTest, StageTimerRecordsIntoCurrentContext) {
  RequestContext context("r");
  const ScopedRequestContext scope(context);
  {
    const obs::Span timer("svc.model", RequestStage::kModel);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(context.stage_ns(RequestStage::kModel), 0u);
}

TEST(RequestContextTest, StageTimerIsNoopWithoutContext) {
  { const obs::Span timer("svc.model", RequestStage::kModel); }  // must not crash
  SUCCEED();
}

TEST(RequestContextTest, StageNamesAreStable) {
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kQueue), "queue_ns");
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kParse), "parse_ns");
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kModel), "model_ns");
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kSearch), "search_ns");
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kSerialize), "serialize_ns");
  EXPECT_STREQ(obs::RequestStageName(RequestStage::kOther), "other_ns");
}

TEST(RequestContextTrace, EventsCarryTheRequestId) {
  std::ostringstream out;
  obs::Tracer tracer(out);
  const obs::ScopedTracer scoped(tracer);

  tracer.Emit(obs::TraceEvent("before").F("k", 1));
  {
    RequestContext context("req-7");
    const ScopedRequestContext scope(context);
    tracer.Emit(obs::TraceEvent("during").F("k", 2));
  }
  tracer.Emit(obs::TraceEvent("after").F("k", 3));

  std::istringstream lines(out.str());
  std::string before, during, after;
  std::getline(lines, before);
  std::getline(lines, during);
  std::getline(lines, after);
  EXPECT_EQ(before.find("\"req\""), std::string::npos);
  EXPECT_NE(during.find("\"req\":\"req-7\""), std::string::npos);
  EXPECT_EQ(after.find("\"req\""), std::string::npos);
}

TEST(RequestContextSpans, TreeHasExactlyOneRootWithTheRequestId) {
  obs::SpanCollector collector;
  const obs::ScopedSpanCollector scoped(collector);

  {
    RequestContext context("req-tree");
    const ScopedRequestContext scope(context);
    obs::Span root("svc.execute");
    {
      obs::Span child("exec.search");
      { obs::Span grandchild("tabu.seed", "seed", 0); }
    }
    { obs::Span sibling("svc.render"); }
  }
  { obs::Span untagged("outside"); }

  std::size_t tagged = 0;
  std::size_t tagged_roots = 0;
  for (const obs::SpanRecord& record : collector.Records()) {
    if (record.name == "outside") {
      EXPECT_TRUE(record.req.empty());
      continue;
    }
    EXPECT_EQ(record.req, "req-tree");
    ++tagged;
    if (record.depth == 0) ++tagged_roots;
  }
  EXPECT_EQ(tagged, 4u);
  EXPECT_EQ(tagged_roots, 1u);  // the span tree reassembles under one root
}

// Daemon-level timings contract: a request with "timings":true gets a
// per-stage breakdown whose stages (including the other_ns remainder) sum
// exactly to total_ns, tagged with the request's id.
TEST(RequestContextDaemon, TimingsStagesSumToTotal) {
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 2;
  svc::Daemon daemon(service, options);

  std::mutex mutex;
  std::condition_variable done;
  std::string response;
  daemon.Submit(
      R"({"id":"t-9","op":"schedule","topology":{"kind":"mixed"},"apps":4,"timings":true})",
      [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mutex);
        response = line;
        done.notify_all();
      });
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return !response.empty(); });
  }

  const JsonValue root = ParseJson(response);
  ASSERT_TRUE(root.Find("ok")->AsBool("ok"));
  EXPECT_EQ(root.Find("req")->AsString("req"), "t-9");
  const JsonValue* timings = root.Find("timings");
  ASSERT_NE(timings, nullptr);
  const std::uint64_t total = timings->Find("total_ns")->AsUint("total_ns");
  std::uint64_t sum = 0;
  for (const char* stage :
       {"queue_ns", "parse_ns", "model_ns", "search_ns", "serialize_ns", "other_ns"}) {
    const JsonValue* value = timings->Find(stage);
    ASSERT_NE(value, nullptr) << stage;
    sum += value->AsUint(stage);
  }
  EXPECT_EQ(sum, total);
  EXPECT_GT(total, 0u);
  // The search dominates a cold schedule request.
  EXPECT_GT(timings->Find("search_ns")->AsUint("search_ns"), 0u);
}

TEST(RequestContextDaemon, NoTimingsUnlessRequested) {
  svc::SchedulingService service;
  svc::Daemon daemon(service, {});
  std::mutex mutex;
  std::condition_variable done;
  std::string response;
  daemon.Submit(R"({"id":"p","op":"ping"})", [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    response = line;
    done.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return !response.empty(); });
  }
  EXPECT_EQ(response, R"({"id":"p","ok":true,"op":"ping"})");
}

TEST(RequestContextDaemon, ContextDoesNotLeakAcrossRequests) {
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 1;  // both requests run on the same worker thread
  svc::Daemon daemon(service, options);

  std::ostringstream out;
  obs::Tracer tracer(out);
  const obs::ScopedTracer scoped(tracer);

  std::mutex mutex;
  std::condition_variable done;
  int answered = 0;
  const auto sink = [&](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex);
    ++answered;
    done.notify_all();
  };
  daemon.Submit(R"({"id":"a","op":"ping"})", sink);
  daemon.Submit(R"({"id":"b","op":"ping"})", sink);
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return answered == 2; });
  }
  daemon.Drain();

  // Each svc.request event carries its own request's id, never a stale one.
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("svc.request") == std::string::npos) continue;
    if (line.find("\"id\":\"a\"") != std::string::npos) {
      EXPECT_NE(line.find("\"req\":\"a\""), std::string::npos) << line;
    }
    if (line.find("\"id\":\"b\"") != std::string::npos) {
      EXPECT_NE(line.find("\"req\":\"b\""), std::string::npos) << line;
    }
  }
}

}  // namespace
}  // namespace commsched
