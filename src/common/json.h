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
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace commsched {

/// A parsed JSON value. Object member order is not preserved (protocol
/// semantics never depend on it); duplicate keys keep the last value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] static JsonValue MakeBool(bool value);
  [[nodiscard]] static JsonValue MakeNumber(double value);
  [[nodiscard]] static JsonValue MakeString(std::string value);
  [[nodiscard]] static JsonValue MakeArray(std::vector<JsonValue> items);
  [[nodiscard]] static JsonValue MakeObject(std::map<std::string, JsonValue> members);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw ConfigError naming `context` on kind mismatch.
  [[nodiscard]] bool AsBool(const std::string& context) const;
  [[nodiscard]] double AsDouble(const std::string& context) const;
  /// Number that must be a non-negative integer (ids, sizes, cycle counts).
  [[nodiscard]] std::uint64_t AsUint(const std::string& context) const;
  [[nodiscard]] const std::string& AsString(const std::string& context) const;
  [[nodiscard]] const std::vector<JsonValue>& AsArray(const std::string& context) const;
  [[nodiscard]] const std::map<std::string, JsonValue>& AsObject(
      const std::string& context) const;

  /// Object member, or nullptr when absent (requires kObject).
  [[nodiscard]] const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
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
  JsonObjectWriter& Field(const std::string& key, const std::string& value);
  JsonObjectWriter& Field(const std::string& key, const char* value);
  JsonObjectWriter& Field(const std::string& key, bool value);
  JsonObjectWriter& Field(const std::string& key, double value);
  JsonObjectWriter& Field(const std::string& key, std::uint64_t value);
  JsonObjectWriter& Raw(const std::string& key, const std::string& json);

  /// The finished object, braces included.
  [[nodiscard]] std::string Finish() const { return "{" + body_ + "}"; }

 private:
  JsonObjectWriter& Key(const std::string& key);

  std::string body_;
};

/// Renders a double the way the rest of the codebase does (ostream default
/// formatting, 6 significant digits) so protocol JSON numbers match CLI text
/// output. Traces use shortest round-trip digits instead (obs/trace.h).
[[nodiscard]] std::string FormatJsonNumber(double value);

}  // namespace commsched
