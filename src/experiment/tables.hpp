#pragma once
/// \file tables.hpp
/// Formatting helpers for the paper-vs-measured tables the benches print,
/// plus environment knobs controlling bench scale.

#include <cstdint>
#include <string>

#include "stats/summary.hpp"

namespace glr::experiment {

/// "12.3 ± 0.4" with the given precision (the paper's `mean ± CI` format).
[[nodiscard]] std::string fmtCI(const stats::ConfidenceInterval& ci,
                                int precision = 1);

/// Fixed-precision number.
[[nodiscard]] std::string fmt(double v, int precision = 1);

/// Percentage, e.g. 0.979 -> "97.9%".
[[nodiscard]] std::string fmtPct(double ratio, int precision = 1);

/// Integer environment variable with default (e.g. GLR_BENCH_RUNS).
[[nodiscard]] int envInt(const char* name, int fallback);

/// Bench scale control: full paper scale when GLR_PAPER_SCALE=1.
[[nodiscard]] bool paperScale();

/// Number of seeds per configuration: GLR_BENCH_RUNS, else 10 at paper
/// scale, else `fallback`.
[[nodiscard]] int benchRuns(int fallback = 2);

}  // namespace glr::experiment
