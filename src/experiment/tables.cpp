#include "experiment/tables.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

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

int envInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

bool paperScale() {
  const char* v = std::getenv("GLR_PAPER_SCALE");
  return v != nullptr && std::strcmp(v, "0") != 0 && *v != '\0';
}

int benchRuns(int fallback) {
  return envInt("GLR_BENCH_RUNS", paperScale() ? 10 : fallback);
}

}  // namespace glr::experiment
