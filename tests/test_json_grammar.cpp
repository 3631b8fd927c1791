// The JSON codec's accepted language, pinned case by case.
//
// Served replies echo parse errors byte for byte, and request values are
// read from the parsed numbers, so a faster parser must accept, reject and
// report exactly what this file lists: the number tokens the strtod-based
// reader took (a leading '+', leading zeros, a bare '.' side), the ones it
// refused (subnormals, overflow, dangling signs and exponents), the six
// C-locale whitespace bytes, ascending member order and the
// last-duplicate-wins rule, and the unknown-key errors that follow from
// that order.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "service/protocol.h"

namespace commsched {
namespace {

std::string ErrorOf(const std::string& text) {
  try {
    (void)ParseJson(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "(accepted)";
}

std::string RequestErrorOf(const std::string& line) {
  try {
    (void)svc::ParseRequest(line);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(JsonGrammar, AcceptsTheStrtodNumberTokens) {
  EXPECT_EQ(ParseJson("+5").AsDouble("n"), 5.0);
  const double negative_zero = ParseJson("-0").AsDouble("n");
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(ParseJson(".5").AsDouble("n"), 0.5);
  EXPECT_EQ(ParseJson("1.").AsDouble("n"), 1.0);
  EXPECT_EQ(ParseJson("01").AsDouble("n"), 1.0);
  EXPECT_EQ(ParseJson("1E+2").AsDouble("n"), 100.0);
  EXPECT_EQ(ParseJson("-.5e-1").AsDouble("n"), -0.05);
  EXPECT_EQ(ParseJson("9007199254740993").AsDouble("n"), 9007199254740992.0);  // 2^53
  EXPECT_EQ(ParseJson("2.2250738585072014e-308").AsDouble("n"), 2.2250738585072014e-308);
  EXPECT_EQ(ParseJson("[+5,-0,.5]").AsArray("a").size(), 3u);
  EXPECT_EQ(ParseJson(R"({"apps":+4})").Find("apps")->AsUint("apps"), 4u);
}

TEST(JsonGrammar, RejectsOtherNumberTokensWithTheirOffsets) {
  EXPECT_EQ(ErrorOf("1e-310"), "json: malformed number '1e-310' (at byte 6)");  // subnormal
  EXPECT_EQ(ErrorOf("1e-400"), "json: malformed number '1e-400' (at byte 6)");
  EXPECT_EQ(ErrorOf("1e999"), "json: malformed number '1e999' (at byte 5)");
  EXPECT_EQ(ErrorOf("-"), "json: malformed number '-' (at byte 1)");
  EXPECT_EQ(ErrorOf("1e"), "json: malformed number '1e' (at byte 2)");
  EXPECT_EQ(ErrorOf("+-5"), "json: malformed number '+-5' (at byte 3)");
  EXPECT_EQ(ErrorOf("[1,--2]"), "json: malformed number '--2' (at byte 6)");
  EXPECT_EQ(ErrorOf("1.5.5"), "json: malformed number '1.5.5' (at byte 5)");
  EXPECT_EQ(ErrorOf("."), "json: malformed number '.' (at byte 1)");
  EXPECT_EQ(ErrorOf("e5"), "json: malformed number 'e5' (at byte 2)");
  EXPECT_EQ(ErrorOf("-inf"), "json: malformed number '-' (at byte 1)");
  EXPECT_EQ(ErrorOf("inf"), "json: expected a value (at byte 0)");
  EXPECT_EQ(ErrorOf("0x10"), "json: trailing characters after JSON value (at byte 1)");
  EXPECT_EQ(ErrorOf(R"({"a":1e-310})"), "json: malformed number '1e-310' (at byte 11)");
}

TEST(JsonGrammar, WhitespaceIsTheCLocaleSet) {
  const JsonValue parsed = ParseJson(" \t\n\v\f\r{ \t\n\v\f\r\"k\" \v:\f[ 1 ,\r2 ]\t} \n");
  EXPECT_EQ(parsed.Find("k")->AsArray("k").size(), 2u);
  EXPECT_EQ(ErrorOf(std::string("\x01") + "1"), "json: expected a value (at byte 0)");
}

TEST(JsonGrammar, StringsKeepEscapesAndRawBytes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\b\f\n\r\te")").AsString("s"),
            std::string("a\"b\\c/d\b\f\n\r\te"));
  EXPECT_EQ(ParseJson(R"("\u0041\u00e9\u20ac")").AsString("s"), "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(ParseJson("\"raw\ttab and \xc3\xa9\"").AsString("s"), "raw\ttab and \xc3\xa9");
  EXPECT_EQ(ErrorOf(R"("\ud800")"), "json: surrogate pairs are not supported (at byte 7)");
  EXPECT_EQ(ErrorOf(R"("\x")"), "json: unknown escape sequence (at byte 3)");
  EXPECT_EQ(ErrorOf("\"abc"), "json: unterminated string (at byte 4)");
}

TEST(JsonGrammar, MembersIterateInAscendingKeyOrderAndTheLastDuplicateWins) {
  const JsonValue parsed = ParseJson(R"({"id":"a","zz":1,"aa":2,"id":"b","Z":3})");
  EXPECT_EQ(parsed.Find("id")->AsString("id"), "b");
  std::vector<std::string> keys;
  for (const auto& [key, member] : parsed.AsObject("o")) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"Z", "aa", "id", "zz"}));
  EXPECT_EQ(parsed.AsObject("o").size(), 4u);
  EXPECT_TRUE(ParseJson("{}").AsObject("o").empty());
  EXPECT_EQ(svc::ParseRequest(R"({"id":"a","op":"ping","id":"b"})").id, "b");
}

TEST(JsonGrammar, UnknownKeysAreNamedInAscendingKeyOrder) {
  EXPECT_EQ(RequestErrorOf(R"({"op":"ping","zz":1,"aa":1})"), "unknown request key 'aa'");
  EXPECT_EQ(RequestErrorOf(R"({"op":"schedule","topology":{"kind":"mixed","zz":1,"aa":1}})"),
            "unknown topology key 'aa'");
  EXPECT_EQ(RequestErrorOf(R"({"op":"schedule","topology":{"kind":"mixed","switches":"x"}})"),
            "topology.switches: expected a non-negative integer");
  EXPECT_EQ(RequestErrorOf(R"({"op":"schedule","topology":{"kind":"random","seed":-1}})"),
            "topology.seed: expected a non-negative integer, got -1");
}

}  // namespace
}  // namespace commsched
