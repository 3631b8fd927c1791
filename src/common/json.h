// The one JSON codec: the parser and escaper behind every JSON surface.
//
// Readers: service protocol requests (JSONL), fault plans, the JSONL traces
// and metrics dumps `report` folds, and google-benchmark output. Writers:
// protocol responses (JsonObjectWriter), trace events and Chrome span
// profiles (AppendJsonEscaped). This is a deliberately small
// recursive-descent parser over the full JSON grammar (objects, arrays,
// strings with escapes, numbers, true/false/null). It is schema-free:
// callers walk the JsonValue tree and apply their own schema. Malformed
// input throws ConfigError with a byte offset.
//
// Numbers are the tokens std::stod read whole: an optional sign (a '+'
// too), digits with an optional '.' on either side, an optional exponent
// ("+5", "01", ".5" and "1." parse; subnormals and overflow do not).
// Whitespace is the C locale's six bytes. tests/test_json_grammar.cpp pins
// that language.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace commsched {

/// A parsed JSON value. An object keeps its members in one vector sorted
/// by key (byte order): they iterate in ascending key order, and Find is a
/// binary search. Of duplicate keys the last one sent wins; the request
/// parsers name the first unknown key in that ascending order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;
  using Members = std::vector<Member>;

  JsonValue() = default;

  [[nodiscard]] static JsonValue MakeBool(bool value);
  [[nodiscard]] static JsonValue MakeNumber(double value);
  [[nodiscard]] static JsonValue MakeString(std::string value);
  [[nodiscard]] static JsonValue MakeArray(std::vector<JsonValue> items);
  /// `members` must be in strictly ascending key order (checked).
  [[nodiscard]] static JsonValue MakeObject(Members members);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw ConfigError naming `context` followed by
  /// `key` on kind mismatch. The name is joined only when a read fails.
  [[nodiscard]] bool AsBool(std::string_view context, std::string_view key = {}) const;
  [[nodiscard]] double AsDouble(std::string_view context, std::string_view key = {}) const;
  /// Number that must be a non-negative integer (ids, sizes, cycle counts).
  [[nodiscard]] std::uint64_t AsUint(std::string_view context, std::string_view key = {}) const;
  [[nodiscard]] const std::string& AsString(std::string_view context,
                                            std::string_view key = {}) const;
  [[nodiscard]] const std::vector<JsonValue>& AsArray(std::string_view context,
                                                      std::string_view key = {}) const;
  [[nodiscard]] const Members& AsObject(std::string_view context) const;

  /// Object member, or nullptr when absent (requires kObject).
  [[nodiscard]] const JsonValue* Find(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Members object_;
};

/// Deepest array/object nesting ParseJson accepts. Protocol requests nest a
/// handful of levels; the bound keeps the recursive-descent parser (and the
/// recursive JsonValue destructor) off the end of the stack on hostile input.
inline constexpr std::size_t kMaxJsonDepth = 128;

/// Parses one complete JSON document; trailing garbage is an error.
/// Throws ConfigError ("json: ... (at byte N)") on malformed input,
/// including nesting deeper than kMaxJsonDepth.
[[nodiscard]] JsonValue ParseJson(const std::string& text);

/// Appends `text` escaped for embedding between double quotes in JSON
/// output (backslash, quote, and control characters; UTF-8 passes through).
void AppendJsonEscaped(std::string& out, std::string_view text);

/// AppendJsonEscaped into a fresh string.
[[nodiscard]] std::string JsonEscape(std::string_view text);

/// Incremental writer for one flat-ish JSON object rendered in insertion
/// order — the response side of the protocol. Values added via Raw() must
/// already be valid JSON (used for nested objects).
class JsonObjectWriter {
 public:
  JsonObjectWriter() = default;
  /// Continues an object whose members `body` already renders, unbraced.
  explicit JsonObjectWriter(std::string body) : body_(std::move(body)) {}

  JsonObjectWriter& Field(const std::string& key, const std::string& value);
  JsonObjectWriter& Field(const std::string& key, const char* value);
  JsonObjectWriter& Field(const std::string& key, bool value);
  JsonObjectWriter& Field(const std::string& key, double value);
  JsonObjectWriter& Field(const std::string& key, std::uint64_t value);
  JsonObjectWriter& Raw(const std::string& key, const std::string& json);

  /// The finished object, braces included.
  [[nodiscard]] std::string Finish() const { return "{" + body_ + "}"; }

  /// The members rendered so far, without the braces.
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  JsonObjectWriter& Key(const std::string& key);

  std::string body_;
};

/// Renders a double the way the rest of the codebase does (ostream default
/// formatting, 6 significant digits) so protocol JSON numbers match CLI text
/// output. Traces use shortest round-trip digits instead (obs/trace.h).
[[nodiscard]] std::string FormatJsonNumber(double value);

}  // namespace commsched
