// Member lookup for tests that read JSON output (obs traces, metrics dumps,
// Chrome traces) through the common codec (common/json.h).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace commsched::testutil {

/// `key`'s member of `object`. A missing key (or a non-object) fails the
/// test and reads as null, whose typed accessors then throw.
inline const JsonValue& Member(const JsonValue& object, const std::string& key) {
  static const JsonValue kMissing;
  const JsonValue* member = object.is_object() ? object.Find(key) : nullptr;
  EXPECT_NE(member, nullptr) << "missing \"" << key << "\"";
  return member != nullptr ? *member : kMissing;
}

}  // namespace commsched::testutil
