#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace commsched {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

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
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
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

  void ExpectWord(const std::string& word) {
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

  JsonValue ParseObject() {
    Enter('{');
    std::map<std::string, JsonValue> members;
    if (!Consume('}')) {
      do {
        std::string key = ParseString();
        Expect(':');
        members[std::move(key)] = ParseValue();
      } while (Consume(','));
      Expect('}');
    }
    --depth_;
    return JsonValue::MakeObject(std::move(members));
  }

  JsonValue ParseArray() {
    Enter('[');
    std::vector<JsonValue> items;
    if (!Consume(']')) {
      do {
        items.push_back(ParseValue());
      } while (Consume(','));
      Expect(']');
    }
    --depth_;
    return JsonValue::MakeArray(std::move(items));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
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
        case 'u': out += ParseUnicodeEscape(); break;
        default: Fail("unknown escape sequence");
      }
    }
  }

  std::string ParseUnicodeEscape() {
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
    std::string out;
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
    return out;
  }

  JsonValue ParseNumber() {
    SkipSpace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double value = std::stod(token, &used);
      if (used != token.size()) Fail("malformed number '" + token + "'");
      return JsonValue::MakeNumber(value);
    } catch (const std::logic_error&) {
      Fail("malformed number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

[[noreturn]] void KindError(const std::string& context, const char* wanted) {
  throw ConfigError(context + ": expected " + wanted);
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

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

bool JsonValue::AsBool(const std::string& context) const {
  if (kind_ != Kind::kBool) KindError(context, "a boolean");
  return bool_;
}

double JsonValue::AsDouble(const std::string& context) const {
  if (kind_ != Kind::kNumber) KindError(context, "a number");
  return number_;
}

std::uint64_t JsonValue::AsUint(const std::string& context) const {
  if (kind_ != Kind::kNumber) KindError(context, "a non-negative integer");
  if (number_ < 0 || std::floor(number_) != number_ ||
      number_ > 9.007199254740992e15) {  // 2^53: exact integer range
    throw ConfigError(context + ": expected a non-negative integer, got " +
                      FormatJsonNumber(number_));
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::AsString(const std::string& context) const {
  if (kind_ != Kind::kString) KindError(context, "a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray(const std::string& context) const {
  if (kind_ != Kind::kArray) KindError(context, "an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject(
    const std::string& context) const {
  if (kind_ != Kind::kObject) KindError(context, "an object");
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
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
