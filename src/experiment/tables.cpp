#include "experiment/tables.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace glr::experiment {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmtCI(const stats::ConfidenceInterval& ci, int precision) {
  if (ci.samples <= 1) return fmt(ci.mean, precision);
  return fmt(ci.mean, precision) + " ± " + fmt(ci.halfwidth, precision);
}

std::string fmtPct(double ratio, int precision) {
  return fmt(ratio * 100.0, precision) + "%";
}

int parseInt(const char* name, const char* value, int min) {
  const char* end = value + std::strlen(value);
  int out = 0;
  const auto [last, ec] = std::from_chars(value, end, out);
  if (ec != std::errc{} || last != end || out < min) {
    throw std::invalid_argument{
        std::string{name} + "='" + value + "': expected an integer" +
        (min > INT_MIN ? " >= " + std::to_string(min) : std::string{})};
  }
  return out;
}

int envInt(const char* name, int fallback, int min) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parseInt(name, v, min);
}

bool paperScale() {
  const char* v = std::getenv("GLR_PAPER_SCALE");
  return v != nullptr && std::strcmp(v, "0") != 0 && *v != '\0';
}

int benchRuns(int fallback) {
  return envInt("GLR_BENCH_RUNS", paperScale() ? 10 : fallback, 1);
}

}  // namespace glr::experiment
