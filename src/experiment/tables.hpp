#pragma once
/// \file tables.hpp
/// Formatting helpers for the paper-vs-measured tables the benches print,
/// plus environment knobs controlling bench scale.

#include <climits>
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

/// `value` as an integer setting called `name`: the whole value must be a
/// base-10 int no less than `min`; anything else (empty, non-numeric,
/// trailing characters, out of range) throws std::invalid_argument naming
/// the setting and its value.
[[nodiscard]] int parseInt(const char* name, const char* value,
                           int min = INT_MIN);

/// Integer environment variable (e.g. GLR_BENCH_RUNS): `fallback` when
/// unset or empty, otherwise parseInt of its value.
[[nodiscard]] int envInt(const char* name, int fallback, int min = INT_MIN);

/// Bench scale control: full paper scale when GLR_PAPER_SCALE=1.
[[nodiscard]] bool paperScale();

/// Number of seeds per configuration: GLR_BENCH_RUNS (at least 1), else 10
/// at paper scale, else `fallback`.
[[nodiscard]] int benchRuns(int fallback = 2);

}  // namespace glr::experiment
