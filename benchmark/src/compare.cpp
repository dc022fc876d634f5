#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

namespace glrbench {
namespace {

/// Pairs a gain needs before it may be called (of which 9 in 10 must win).
constexpr std::size_t kMinPairs = 10;

/// Just enough JSON for result files: objects, arrays, strings, numbers,
/// booleans and null.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* get(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Json document() {
    Json v = value();
    skipSpace();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error{std::string{"JSON: "} + what + " at offset " +
                             std::to_string(pos_)};
  }
  void skipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }
  bool literal(const char* word) {
    const std::string w = word;
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  Json value() {
    if (++depth_ > 64) fail("nesting too deep");
    skipSpace();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = Json::Type::kObject;
      if (!consume('}')) {
        do {
          skipSpace();
          std::string key = string();
          expect(':');
          v.members.emplace_back(std::move(key), value());
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      v.type = Json::Type::kArray;
      if (!consume(']')) {
        do {
          v.items.push_back(value());
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.text = string();
    } else if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Json::Type::kBool;
    } else if (literal("null")) {
      v.type = Json::Type::kNull;
    } else {
      v.type = Json::Type::kNumber;
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      pos_ += static_cast<std::size_t>(end - begin);
    }
    --depth_;
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (s_.size() - pos_ < 4) fail("short \\u escape");
          const unsigned long cp =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: out += e;
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

struct Series {
  std::string unit;
  bool higherIsBetter = false;
  double bound = -1.0;  // < 0: none
  double floor = 0.0;
  std::vector<double> values;
};

/// workload -> metric -> values in file order (metric order kept).
using Side = std::map<std::string, std::vector<std::pair<std::string, Series>>>;

Json loadFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  const std::string text{std::istreambuf_iterator<char>{in},
                         std::istreambuf_iterator<char>{}};
  try {
    return Parser{text}.document();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

const Json& field(const Json& obj, const std::string& key,
                  Json::Type type, const std::string& path) {
  const Json* v = obj.get(key);
  if (v == nullptr || v->type != type) {
    throw std::runtime_error{path + ": missing or mistyped \"" + key + "\""};
  }
  return *v;
}

void addFile(const std::string& path, Side& side, std::string& mode) {
  const Json doc = loadFile(path);
  if (doc.type != Json::Type::kObject ||
      field(doc, "schema", Json::Type::kString, path).text != "glrbench/1") {
    throw std::runtime_error{path + ": not a glrbench result file"};
  }
  if (!field(doc, "valid", Json::Type::kBool, path).boolean) {
    throw std::runtime_error{
        path + ": invalid result (" +
        field(doc, "invalid_reason", Json::Type::kString, path).text +
        "); only optimized, unsanitized Release builds are compared"};
  }
  const std::string& fileMode =
      field(doc, "mode", Json::Type::kString, path).text;
  if (mode.empty()) mode = fileMode;
  if (fileMode != mode) {
    throw std::runtime_error{path + ": mixes " + fileMode + " and " + mode +
                             " results"};
  }
  const std::string& workload =
      field(doc, "workload", Json::Type::kString, path).text;
  auto& series = side[workload];
  for (const auto& [name, m] :
       field(doc, "metrics", Json::Type::kObject, path).members) {
    const Json* value = m.get("value");
    if (value == nullptr || value->type != Json::Type::kNumber) continue;
    auto it = std::find_if(series.begin(), series.end(),
                           [&](const auto& s) { return s.first == name; });
    if (it == series.end()) {
      Series s;
      s.unit = field(m, "unit", Json::Type::kString, path).text;
      s.higherIsBetter =
          field(m, "better", Json::Type::kString, path).text == "higher";
      const Json* bound = m.get("bound");
      s.bound = bound != nullptr && bound->type == Json::Type::kNumber
                    ? bound->number
                    : -1.0;
      const Json* floor = m.get("floor");
      s.floor = floor != nullptr && floor->type == Json::Type::kNumber
                    ? floor->number
                    : 0.0;
      series.emplace_back(name, std::move(s));
      it = std::prev(series.end());
    }
    it->second.values.push_back(value->number);
  }
}

/// First, second (the median) and third quartile of `v` (size >= 1),
/// exclusive method.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

/// Quartile distance as a share of the median (0 for a constant series).
double relativeSpread(const std::vector<double>& q) {
  const double iqr = q[2] - q[0];
  if (iqr == 0.0) return 0.0;
  return q[1] == 0.0 ? std::numeric_limits<double>::infinity()
                     : iqr / std::fabs(q[1]);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

int compareResults(const std::vector<std::string>& base,
                   const std::vector<std::string>& change) {
  if (base.empty() || change.empty()) {
    throw std::runtime_error{"compare needs at least one file on each side"};
  }
  Side a;
  Side b;
  std::string mode;
  for (const std::string& f : base) addFile(f, a, mode);
  for (const std::string& f : change) addFile(f, b, mode);

  std::map<std::string, int> tally;
  std::printf("%-10s %-28s %-8s %-30s %-30s %8s %6s %7s %6s  %s\n", "workload",
              "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
              "delta", "wins", "spread", "bound", "verdict");
  for (const auto& [workload, seriesA] : a) {
    const auto bw = b.find(workload);
    if (bw == b.end()) {
      std::printf("%-10s (no B files for this workload)\n", workload.c_str());
      continue;
    }
    for (const auto& [name, sa] : seriesA) {
      const auto sbIt =
          std::find_if(bw->second.begin(), bw->second.end(),
                       [&](const auto& s) { return s.first == name; });
      if (sbIt == bw->second.end()) continue;
      const Series& sb = sbIt->second;
      const std::vector<double>& va = sa.values;
      const std::vector<double>& vb = sb.values;
      const std::vector<double> qa = quartiles(va);
      const std::vector<double> qb = quartiles(vb);
      const double medA = qa[1];
      const double medB = qb[1];
      const double sign = sa.higherIsBetter ? -1.0 : 1.0;
      // Positive when B is worse.
      const double worse = sign * (medB - medA);
      const double relWorse =
          worse == 0.0 ? 0.0
                       : (medA == 0.0 ? std::copysign(
                                            std::numeric_limits<double>::infinity(),
                                            worse)
                                      : worse / std::fabs(medA));
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      std::size_t losses = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        const double d = sign * (vb[i] - va[i]);
        wins += d < 0.0 ? 1 : 0;
        losses += d > 0.0 ? 1 : 0;
      }
      const bool mostPairs = wins * 10 >= pairs * 9;
      const bool mostLost = losses * 10 >= pairs * 9;
      const double absDiff = std::fabs(medB - medA);
      const bool beyondNoise = absDiff > qa[2] - qa[0] && absDiff > sa.floor;
      const bool allBetter =
          sa.higherIsBetter
              ? *std::min_element(vb.begin(), vb.end()) >
                    *std::max_element(va.begin(), va.end())
              : *std::max_element(vb.begin(), vb.end()) <
                    *std::min_element(va.begin(), va.end());
      const double spread = std::max(relativeSpread(qa), relativeSpread(qb));
      const bool bounded = sa.bound >= 0.0;

      const bool enoughPairs = pairs >= kMinPairs;

      const char* verdict = "unchanged";
      if (bounded) {
        const bool looksBetter =
            worse < 0.0 && (allBetter || (beyondNoise && spread <= sa.bound));
        if (looksBetter && enoughPairs && mostPairs) {
          verdict = "improved";
        } else if (spread > sa.bound || (looksBetter && !enoughPairs)) {
          verdict = "unresolved";
        } else if (relWorse > sa.bound && absDiff > sa.floor) {
          verdict = "regressed";
        }
      } else if (worse != 0.0) {
        const char* direction = worse < 0.0 ? "improved" : "regressed";
        if (va.size() >= 2 && vb.size() >= 2 && spread == 0.0) {
          verdict = direction;  // an exact count that changed
        } else if (!enoughPairs) {
          verdict = "unresolved";
        } else if (beyondNoise && (worse < 0.0 ? mostPairs : mostLost)) {
          verdict = direction;
        }
      }
      ++tally[verdict];

      const std::string colA =
          fmt(medA) + " [" + fmt(qa[0]) + ", " + fmt(qa[2]) + "]";
      const std::string colB =
          fmt(medB) + " [" + fmt(qb[0]) + ", " + fmt(qb[2]) + "]";
      const double delta = medA == 0.0 ? (medB == 0.0 ? 0.0 : NAN)
                                       : (medB - medA) / std::fabs(medA);
      std::printf("%-10s %-28s %-8s %-30s %-30s %+7.2f%% %3zu/%-2zu %6.2f%% %6s  %s\n",
                  workload.c_str(), name.c_str(), sa.unit.c_str(),
                  colA.c_str(), colB.c_str(), delta * 100.0, wins, pairs,
                  spread * 100.0,
                  bounded ? (fmt(sa.bound * 100.0) + "%").c_str() : "-",
                  verdict);
    }
  }
  std::printf("\n%zu A file(s), %zu B file(s):", base.size(), change.size());
  for (const auto& [verdict, n] : tally) {
    std::printf(" %d %s", n, verdict.c_str());
  }
  std::printf("\n");
  return tally.count("regressed") != 0 ? 1 : 0;
}

}  // namespace glrbench
