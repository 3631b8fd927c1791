#include "common/json.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

namespace commsched {
namespace {

/// The C locale's std::isspace set.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/// Reads `token` as std::stod would read it whole: std::from_chars plus
/// the one leading '+' strtod also takes, and no result strtod flags as out
/// of range. That is overflow, every subnormal, and a few tokens that round
/// up to DBL_MIN; strtod itself settles that boundary.
bool ReadNumber(std::string_view token, double& value) {
  const char* first = token.data();
  const char* const last = first + token.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && (*first == '+' || *first == '-')) return false;
  }
  const auto [end, error] = std::from_chars(first, last, value);
  if (error != std::errc() || end != last) return false;
  if (value == 0.0 || std::fabs(value) > DBL_MIN) return true;
  const std::string copy(token);
  errno = 0;
  static_cast<void>(std::strtod(copy.c_str(), nullptr));
  return errno != ERANGE;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw ConfigError("json: " + why + " (at byte " + std::to_string(pos_) + ")");
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  [[nodiscard]] char PeekChar() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (PeekChar() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void ExpectWord(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) Fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue ParseValue() {
    const char c = PeekChar();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return JsonValue::MakeString(ParseString());
      case 't':
        ExpectWord("true");
        return JsonValue::MakeBool(true);
      case 'f':
        ExpectWord("false");
        return JsonValue::MakeBool(false);
      case 'n':
        ExpectWord("null");
        return JsonValue();
      default: return ParseNumber();
    }
  }

  /// Opens one array/object level. A failed parse discards the parser, so
  /// levels are closed (--depth_) only on the success paths.
  void Enter(char open) {
    Expect(open);
    if (++depth_ > kMaxJsonDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    }
  }

  // Members and items collect on the parser's stacks, and each closed
  // object or array moves its own top run into one vector of exact size.
  JsonValue ParseObject() {
    Enter('{');
    const std::size_t base = members_.size();
    if (!Consume('}')) {
      do {
        std::string key = ParseString();
        Expect(':');
        JsonValue value = ParseValue();
        members_.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      Expect('}');
    }
    --depth_;
    return JsonValue::MakeObject(TakeMembers(base));
  }

  /// Moves members_[base..] out in ascending key order; of equal keys only
  /// the last one sent is kept.
  JsonValue::Members TakeMembers(std::size_t base) {
    order_.resize(members_.size() - base);
    std::iota(order_.begin(), order_.end(), base);
    std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
      const int c = members_[a].first.compare(members_[b].first);
      return c < 0 || (c == 0 && a < b);
    });
    JsonValue::Members members;
    members.reserve(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (i + 1 < order_.size() && members_[order_[i]].first == members_[order_[i + 1]].first) {
        continue;  // a later duplicate wins
      }
      members.push_back(std::move(members_[order_[i]]));
    }
    members_.resize(base);
    return members;
  }

  JsonValue ParseArray() {
    Enter('[');
    const std::size_t base = items_.size();
    if (!Consume(']')) {
      do {
        items_.push_back(ParseValue());
      } while (Consume(','));
      Expect(']');
    }
    --depth_;
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<JsonValue> items(std::make_move_iterator(first),
                                 std::make_move_iterator(items_.end()));
    items_.erase(first, items_.end());
    return JsonValue::MakeArray(std::move(items));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) Fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': AppendUnicodeEscape(out); break;
        default: Fail("unknown escape sequence");
      }
    }
  }

  void AppendUnicodeEscape(std::string& out) {
    if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A') + 10;
      } else {
        Fail("invalid \\u escape digit");
      }
    }
    // UTF-8 encode the BMP code point (surrogate pairs are not needed by
    // the protocol; reject them rather than mis-encode).
    if (code >= 0xD800 && code <= 0xDFFF) Fail("surrogate pairs are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6U)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12U)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    if (pos_ == start) Fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    if (!ReadNumber(token, value)) Fail("malformed number '" + std::string(token) + "'");
    return JsonValue::MakeNumber(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
  std::vector<JsonValue::Member> members_;  // members of the open objects
  std::vector<JsonValue> items_;            // items of the open arrays
  std::vector<std::size_t> order_;          // TakeMembers' sort scratch
};

[[noreturn]] void KindError(std::string_view context, std::string_view key, const char* wanted) {
  throw ConfigError(std::string(context) + std::string(key) + ": expected " + wanted);
}

}  // namespace

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(Members members) {
  CS_CHECK(std::adjacent_find(members.begin(), members.end(),
                              [](const Member& a, const Member& b) {
                                return a.first >= b.first;
                              }) == members.end(),
           "object members must be in strictly ascending key order");
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

bool JsonValue::AsBool(std::string_view context, std::string_view key) const {
  if (kind_ != Kind::kBool) KindError(context, key, "a boolean");
  return bool_;
}

double JsonValue::AsDouble(std::string_view context, std::string_view key) const {
  if (kind_ != Kind::kNumber) KindError(context, key, "a number");
  return number_;
}

std::uint64_t JsonValue::AsUint(std::string_view context, std::string_view key) const {
  if (kind_ != Kind::kNumber) KindError(context, key, "a non-negative integer");
  if (number_ < 0 || std::floor(number_) != number_ ||
      number_ > 9.007199254740992e15) {  // 2^53: exact integer range
    throw ConfigError(std::string(context) + std::string(key) +
                      ": expected a non-negative integer, got " + FormatJsonNumber(number_));
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::AsString(std::string_view context, std::string_view key) const {
  if (kind_ != Kind::kString) KindError(context, key, "a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray(std::string_view context,
                                                 std::string_view key) const {
  if (kind_ != Kind::kArray) KindError(context, key, "an array");
  return array_;
}

const JsonValue::Members& JsonValue::AsObject(std::string_view context) const {
  if (kind_ != Kind::kObject) KindError(context, {}, "an object");
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = std::lower_bound(
      object_.begin(), object_.end(), key,
      [](const Member& member, std::string_view k) { return std::string_view(member.first) < k; });
  return it != object_.end() && it->first == key ? &it->second : nullptr;
}

JsonValue ParseJson(const std::string& text) { return Parser(text).Parse(); }

void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendJsonEscaped(out, text);
  return out;
}

std::string FormatJsonNumber(double value) {
  std::ostringstream oss;
  oss << value;  // default 6-significant-digit formatting, like the CLI
  return oss.str();
}

JsonObjectWriter& JsonObjectWriter::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += '"';
  AppendJsonEscaped(body_, key);
  body_ += "\":";
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(const std::string& key, const std::string& value) {
  Key(key);
  body_ += '"';
  AppendJsonEscaped(body_, value);
  body_ += '"';
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(const std::string& key, const char* value) {
  return Field(key, std::string(value));
}

JsonObjectWriter& JsonObjectWriter::Field(const std::string& key, bool value) {
  Key(key).body_ += value ? "true" : "false";
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(const std::string& key, double value) {
  Key(key).body_ += FormatJsonNumber(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(const std::string& key, std::uint64_t value) {
  Key(key).body_ += std::to_string(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Raw(const std::string& key, const std::string& json) {
  Key(key).body_ += json;
  return *this;
}

}  // namespace commsched
