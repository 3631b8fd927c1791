#include "faults/fault_plan.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace commsched::faults {
namespace {

[[noreturn]] void Fail(const std::string& why) { throw ConfigError("fault plan: " + why); }

FaultKind ParseKind(const std::string& name) {
  if (name == "link_down") return FaultKind::kLinkDown;
  if (name == "link_up") return FaultKind::kLinkUp;
  if (name == "switch_down") return FaultKind::kSwitchDown;
  if (name == "switch_up") return FaultKind::kSwitchUp;
  Fail("unknown event kind \"" + name + "\"");
}

/// One event object of the plan's "events" array; `where` names it
/// ("event 3") in errors.
FaultEvent ParseEvent(const JsonValue& value, const std::string& where) {
  for (const auto& [key, member] : value.AsObject("fault plan: " + where)) {
    if (key != "at" && key != "kind" && key != "a" && key != "b" && key != "switch") {
      Fail(where + ": unknown event key \"" + key + "\"");
    }
  }
  const auto uint_field = [&](const JsonValue& field, const char* key) {
    return static_cast<std::size_t>(field.AsUint("fault plan: " + where + " \"" + key + "\""));
  };
  const JsonValue* at = value.Find("at");
  const JsonValue* kind = value.Find("kind");
  const JsonValue* a = value.Find("a");
  const JsonValue* b = value.Find("b");
  const JsonValue* switch_id = value.Find("switch");
  if (at == nullptr) Fail(where + " is missing \"at\"");
  if (kind == nullptr) Fail(where + " is missing \"kind\"");

  FaultEvent event;
  event.at_cycle = uint_field(*at, "at");
  event.kind = ParseKind(kind->AsString("fault plan: " + where + " \"kind\""));
  if (event.kind == FaultKind::kLinkDown || event.kind == FaultKind::kLinkUp) {
    if (a == nullptr || b == nullptr) Fail(where + ": link event needs both \"a\" and \"b\"");
    if (switch_id != nullptr) Fail(where + ": link event must not name a \"switch\"");
    event.a = uint_field(*a, "a");
    event.b = uint_field(*b, "b");
    if (event.a == event.b) Fail(where + ": link event endpoints must differ");
  } else {
    if (switch_id == nullptr) Fail(where + ": switch event needs \"switch\"");
    if (a != nullptr || b != nullptr) Fail(where + ": switch event must not name \"a\"/\"b\"");
    event.switch_id = uint_field(*switch_id, "switch");
  }
  return event;
}

}  // namespace

FaultPlan FaultPlan::FromEvents(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at_cycle < y.at_cycle;
                   });
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

FaultPlan FaultPlan::FromJson(const std::string& text) {
  JsonValue root;
  try {
    root = ParseJson(text);
  } catch (const ConfigError& e) {
    Fail(e.what());
  }
  for (const auto& [key, member] : root.AsObject("fault plan")) {
    if (key != "events") Fail("unknown key \"" + key + "\" (a plan holds only \"events\")");
  }
  const JsonValue* events = root.Find("events");
  if (events == nullptr) Fail("missing \"events\"");
  std::vector<FaultEvent> parsed;
  for (const JsonValue& event : events->AsArray("fault plan: \"events\"")) {
    parsed.push_back(ParseEvent(event, "event " + std::to_string(parsed.size())));
  }
  return FromEvents(std::move(parsed));
}

std::string FaultPlan::ToJson() const {
  std::ostringstream out;
  out << "{\"events\": [";
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const FaultEvent& e = events_[k];
    if (k > 0) out << ", ";
    out << "{\"at\": " << e.at_cycle << ", \"kind\": \"" << KindName(e.kind) << "\"";
    if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
      out << ", \"a\": " << e.a << ", \"b\": " << e.b;
    } else {
      out << ", \"switch\": " << e.switch_id;
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

void FaultPlan::ValidateFor(const topo::SwitchGraph& graph) const {
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const FaultEvent& e = events_[k];
    const std::string where = "fault plan event " + std::to_string(k) + ": ";
    if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
      if (e.a >= graph.switch_count() || e.b >= graph.switch_count()) {
        throw ConfigError(where + "link endpoint out of range (topology has " +
                          std::to_string(graph.switch_count()) + " switches)");
      }
      if (!graph.HasLink(e.a, e.b)) {
        throw ConfigError(where + "no link " + std::to_string(e.a) + "--" +
                          std::to_string(e.b) + " in the topology");
      }
    } else if (e.switch_id >= graph.switch_count()) {
      throw ConfigError(where + "switch " + std::to_string(e.switch_id) +
                        " out of range (topology has " +
                        std::to_string(graph.switch_count()) + " switches)");
    }
  }
}

const char* FaultPlan::KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kSwitchDown: return "switch_down";
    case FaultKind::kSwitchUp: return "switch_up";
  }
  CS_UNREACHABLE("bad FaultKind");
}

}  // namespace commsched::faults
