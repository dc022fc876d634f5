#pragma once
/// \file result.hpp
/// Metric definitions, the host/build/noise stamp, and the JSON result file
/// every glrbench run writes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace glrbench {

/// No regression bound (per-layer metrics).
inline constexpr double kNoBound = -1.0;

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higherIsBetter = false;
  /// Share of the base median by which the metric may worsen before it is a
  /// regression; kNoBound for per-layer metrics.
  double bound = kNoBound;
  /// Absolute change below which a difference never counts (same unit).
  double floor = 0.0;
};

/// The metrics `glrbench run` reports for every workload.
[[nodiscard]] const std::vector<MetricSpec>& endToEndSpecs();
/// The metrics `glrbench trace` reports for every workload.
[[nodiscard]] const std::vector<MetricSpec>& perLayerSpecs();

/// /proc/stat's aggregate CPU counters, for the steal share of a run.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes readCpuTimes();

/// CPUs this process may run on (what nproc prints).
[[nodiscard]] unsigned usableCpus();

/// Peak resident set size of this process so far (VmHWM), in bytes.
[[nodiscard]] std::size_t peakRssBytes();

/// True when this binary is an optimized, unsanitized Release build; `why`
/// names the first defect otherwise.
[[nodiscard]] bool releaseBuild(std::string* why);

struct Result {
  std::string mode;  // "run" or "trace"
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool quick = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  /// Extra JSON members (without braces), already rendered.
  std::string details;

  /// Records a metric declared in the mode's spec table; throws
  /// std::logic_error for an undeclared name.
  void set(const std::string& name, double value, std::size_t samples);
  /// Counts one failed run and keeps its reason.
  void fail(const std::string& why);

  struct Value {
    const MetricSpec* spec;
    double value;
    std::size_t samples;
  };
  std::vector<Value> metrics;
};

/// Prints the metric table to stdout and writes the result file (host and
/// build stamp, steal share since `start`). Throws std::logic_error if a
/// declared metric was never set, std::runtime_error if the file cannot be
/// written.
void writeResult(const Result& r, const std::string& path,
                 const CpuTimes& start);

/// JSON string literal for `s`, quotes included.
[[nodiscard]] std::string jsonString(const std::string& s);
/// JSON number with every digit (null for NaN or infinity).
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace glrbench
