// metrics_check: validates Prometheus text exposition (CI gate).
//
//   metrics_check [--file metrics.txt] [--require commsched_svc_requests_total]...
//
// Reads the exposition from --file (or stdin), checks that it is
// syntactically valid Prometheus text format, that every sample belongs to
// a family announced by a preceding "# TYPE" line, that histogram families
// carry a "+Inf" bucket, and that every --require'd family is present with
// at least one sample. Exits 0 when valid, 1 with a line-numbered
// diagnostic otherwise — a scrape that Prometheus would reject should fail
// the build, not a deployment.
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_' || name[0] == ':')) {
    return false;
  }
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

/// Parses `{key="value",...}` starting at text[pos] == '{'. Returns false
/// on malformed labels; advances pos past the closing brace.
bool ParseLabels(const std::string& text, std::size_t& pos, std::string* error,
                 std::map<std::string, std::string>* labels) {
  ++pos;  // '{'
  while (pos < text.size() && text[pos] != '}') {
    std::string name;
    while (pos < text.size() && text[pos] != '=') name += text[pos++];
    if (!ValidLabelName(name)) {
      *error = "bad label name '" + name + "'";
      return false;
    }
    if (pos >= text.size() || text[pos] != '=') {
      *error = "label '" + name + "' missing '='";
      return false;
    }
    ++pos;
    if (pos >= text.size() || text[pos] != '"') {
      *error = "label '" + name + "' value not quoted";
      return false;
    }
    ++pos;
    std::string value;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) break;
      }
      value += text[pos++];
    }
    if (pos >= text.size()) {
      *error = "unterminated label value for '" + name + "'";
      return false;
    }
    ++pos;  // closing quote
    (*labels)[name] = value;
    if (pos < text.size() && text[pos] == ',') ++pos;
  }
  if (pos >= text.size() || text[pos] != '}') {
    *error = "unterminated label set";
    return false;
  }
  ++pos;
  return true;
}

/// The family a sample name belongs to: histogram/summary samples use the
/// _bucket/_sum/_count suffixes of their declared family.
std::string FamilyOf(const std::string& name, const std::set<std::string>& declared) {
  if (declared.count(name) > 0) return name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      if (declared.count(base) > 0) return base;
    }
  }
  return "";
}

int Fail(std::size_t line_number, const std::string& line, const std::string& reason) {
  std::cerr << "metrics_check: line " << line_number << ": " << reason << "\n  " << line << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--file" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg == "--require" && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else {
      std::cerr << "usage: metrics_check [--file F] [--require METRIC]...\n";
      return 2;
    }
  }

  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::cerr << "metrics_check: cannot open '" << path << "'\n";
      return 1;
    }
  }
  std::istream& in = path.empty() ? std::cin : file;

  std::set<std::string> declared;
  std::map<std::string, std::string> family_type;  // family -> counter|gauge|...
  std::map<std::string, std::size_t> samples_per_family;
  std::set<std::string> histogram_with_inf;
  std::size_t line_number = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, kind;
      comment >> hash >> keyword;
      if (keyword == "TYPE") {
        comment >> name >> kind;
        if (!ValidMetricName(name)) return Fail(line_number, line, "bad family name");
        static const std::set<std::string> kKinds = {"counter", "gauge", "histogram",
                                                     "summary", "untyped"};
        if (kKinds.count(kind) == 0) return Fail(line_number, line, "bad TYPE '" + kind + "'");
        if (declared.count(name) > 0) {
          return Fail(line_number, line, "family '" + name + "' declared twice");
        }
        declared.insert(name);
        family_type[name] = kind;
      }
      continue;  // HELP and free comments pass through
    }

    // Sample line: name[{labels}] value
    std::size_t pos = 0;
    std::string name;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') name += line[pos++];
    if (!ValidMetricName(name)) return Fail(line_number, line, "bad metric name '" + name + "'");
    std::map<std::string, std::string> labels;
    if (pos < line.size() && line[pos] == '{') {
      std::string error;
      if (!ParseLabels(line, pos, &error, &labels)) return Fail(line_number, line, error);
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return Fail(line_number, line, "expected ' ' before the sample value");
    }
    const std::string value_text = line.substr(pos + 1);
    char* end = nullptr;
    std::strtod(value_text.c_str(), &end);
    const bool inf_or_nan = value_text == "+Inf" || value_text == "-Inf" || value_text == "NaN";
    if (!inf_or_nan && (end == value_text.c_str() || *end != '\0')) {
      return Fail(line_number, line, "bad sample value '" + value_text + "'");
    }

    const std::string family = FamilyOf(name, declared);
    if (family.empty()) {
      return Fail(line_number, line, "sample '" + name + "' has no preceding # TYPE");
    }
    samples_per_family[family]++;
    if (family_type[family] == "histogram" && labels.count("le") > 0 &&
        labels.at("le") == "+Inf") {
      histogram_with_inf.insert(family);
    }
  }

  for (const auto& [family, kind] : family_type) {
    if (kind == "histogram" && histogram_with_inf.count(family) == 0 &&
        samples_per_family[family] > 0) {
      std::cerr << "metrics_check: histogram '" << family << "' has no le=\"+Inf\" bucket\n";
      return 1;
    }
  }
  for (const std::string& name : required) {
    if (samples_per_family.count(name) == 0 || samples_per_family[name] == 0) {
      std::cerr << "metrics_check: required metric '" << name << "' is missing\n";
      return 1;
    }
  }
  std::cout << "metrics_check: " << family_type.size() << " families, OK\n";
  return 0;
}
