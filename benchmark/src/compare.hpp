#pragma once
/// \file compare.hpp
/// `glrbench compare A.json... -- B.json...`: one verdict per (workload,
/// metric) between a base set A and a change set B of result files.
///
/// Per metric with a bound (end to end), A and B paired in the order given:
///  * improved   — at least ten pairs, B wins at least 9 in 10 of them
///                 (ties count for neither), and the medians differ by more
///                 than A's quartile spread and the floor, or every B beats
///                 every A;
///  * unresolved — the spread of either side (quartile distance over the
///                 median) exceeds the bound, or B reads better on fewer
///                 than ten pairs;
///  * regressed  — B's median is worse than A's by more than the bound and
///                 the floor;
///  * unchanged  — otherwise.
/// Per-layer metrics have no bound: one that is constant on each side (two
/// or more runs a side) and differs is improved or regressed outright, as
/// an exact count; otherwise a difference needs ten pairs and the 9-of-10
/// rule, and is unresolved with fewer.
/// Quartiles follow Python's statistics.quantiles(n=4) (exclusive method).

#include <string>
#include <vector>

namespace glrbench {

/// Prints the verdict table; returns 1 if anything regressed, 0 otherwise.
/// Throws std::runtime_error on an unreadable, malformed or invalid
/// (non-Release, sanitized) result file, or on mixed run/trace files.
int compareResults(const std::vector<std::string>& base,
                   const std::vector<std::string>& change);

}  // namespace glrbench
