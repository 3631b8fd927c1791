// FaultPlan: JSON round-trip, ordering, validation, and malformed-input
// handling (ISSUE 3 tentpole part 1 + satellite hardening).
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include "topology/library.h"

namespace commsched::faults {
namespace {

TEST(FaultPlan, FromEventsSortsByCycleStably) {
  const FaultPlan plan = FaultPlan::FromEvents({
      {200, FaultKind::kLinkUp, 0, 1, 0},
      {100, FaultKind::kSwitchDown, 0, 0, 3},
      {100, FaultKind::kLinkDown, 0, 1, 0},  // same cycle: keeps declared order
  });
  ASSERT_EQ(plan.events().size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kSwitchDown);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kLinkUp);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, JsonRoundTrip) {
  const std::string text = R"({"events": [
    {"at": 6000, "kind": "link_down", "a": 0, "b": 1},
    {"at": 6000, "kind": "switch_down", "switch": 3},
    {"at": 20000, "kind": "link_up", "a": 0, "b": 1},
    {"at": 25000, "kind": "switch_up", "switch": 3}
  ]})";
  const FaultPlan plan = FaultPlan::FromJson(text);
  ASSERT_EQ(plan.events().size(), 4u);
  EXPECT_EQ(plan.events()[0].at_cycle, 6000u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events()[0].a, 0u);
  EXPECT_EQ(plan.events()[0].b, 1u);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kSwitchDown);
  EXPECT_EQ(plan.events()[1].switch_id, 3u);

  const FaultPlan reparsed = FaultPlan::FromJson(plan.ToJson());
  EXPECT_EQ(reparsed.events(), plan.events());
}

TEST(FaultPlan, EmptyPlanRoundTrips) {
  const FaultPlan plan = FaultPlan::FromJson(R"({"events": []})");
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(FaultPlan::FromJson(plan.ToJson()).empty());
}

TEST(FaultPlan, KindNamesAreStable) {
  EXPECT_STREQ(FaultPlan::KindName(FaultKind::kLinkDown), "link_down");
  EXPECT_STREQ(FaultPlan::KindName(FaultKind::kLinkUp), "link_up");
  EXPECT_STREQ(FaultPlan::KindName(FaultKind::kSwitchDown), "switch_down");
  EXPECT_STREQ(FaultPlan::KindName(FaultKind::kSwitchUp), "switch_up");
}

TEST(FaultPlan, MalformedJsonCorpus) {
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"empty", ""},
      {"not json", "hello"},
      {"no events key", R"({"foo": []})"},
      {"events not array", R"({"events": 3})"},
      {"truncated array", R"({"events": [)"},
      {"truncated object", R"({"events": [{"at": 5)"},
      {"missing kind", R"({"events": [{"at": 5, "a": 0, "b": 1}]})"},
      {"missing at", R"({"events": [{"kind": "link_down", "a": 0, "b": 1}]})"},
      {"unknown kind", R"({"events": [{"at": 5, "kind": "meteor", "a": 0, "b": 1}]})"},
      {"link without endpoints", R"({"events": [{"at": 5, "kind": "link_down"}]})"},
      {"link with one endpoint", R"({"events": [{"at": 5, "kind": "link_down", "a": 0}]})"},
      {"self loop", R"({"events": [{"at": 5, "kind": "link_down", "a": 2, "b": 2}]})"},
      {"switch event without switch", R"({"events": [{"at": 5, "kind": "switch_down"}]})"},
      {"switch event with endpoints",
       R"({"events": [{"at": 5, "kind": "switch_down", "switch": 1, "a": 0, "b": 1}]})"},
      {"link event with switch key",
       R"({"events": [{"at": 5, "kind": "link_down", "a": 0, "b": 1, "switch": 2}]})"},
      {"negative cycle", R"({"events": [{"at": -5, "kind": "switch_down", "switch": 1}]})"},
      {"non numeric cycle", R"({"events": [{"at": "soon", "kind": "switch_down", "switch": 1}]})"},
      {"trailing garbage", R"({"events": []} tail)"},
      {"unknown top-level key", R"({"events":[],"x":1})"},
      {"unknown event key",
       R"({"events": [{"at": 5, "kind": "switch_down", "switch": 1, "when": 2}]})"},
      {"fractional cycle", R"({"events": [{"at": 5.5, "kind": "switch_down", "switch": 1}]})"},
      {"cycle of 2^64",
       R"({"events": [{"at": 18446744073709551616, "kind": "switch_down", "switch": 1}]})"},
  };
  for (const Case& c : cases) {
    try {
      (void)FaultPlan::FromJson(c.text);
      ADD_FAILURE() << c.name << ": expected ConfigError, got no throw";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan"), std::string::npos) << c.name;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": wrong exception type: " << e.what();
    }
  }
}

TEST(FaultPlan, ValidateForChecksTopology) {
  const topo::SwitchGraph ring = topo::MakeRing(4);  // links 0-1,1-2,2-3,3-0

  const FaultPlan good = FaultPlan::FromEvents({{10, FaultKind::kLinkDown, 0, 1, 0},
                                                {20, FaultKind::kSwitchDown, 0, 0, 3}});
  EXPECT_NO_THROW(good.ValidateFor(ring));

  const FaultPlan bad_switch = FaultPlan::FromEvents({{10, FaultKind::kSwitchDown, 0, 0, 9}});
  EXPECT_THROW(bad_switch.ValidateFor(ring), ConfigError);

  const FaultPlan bad_endpoint = FaultPlan::FromEvents({{10, FaultKind::kLinkDown, 0, 9, 0}});
  EXPECT_THROW(bad_endpoint.ValidateFor(ring), ConfigError);

  // 0--2 is a chord the ring does not have: only existing links can fail.
  const FaultPlan no_such_link = FaultPlan::FromEvents({{10, FaultKind::kLinkDown, 0, 2, 0}});
  EXPECT_THROW(no_such_link.ValidateFor(ring), ConfigError);
}

}  // namespace
}  // namespace commsched::faults
