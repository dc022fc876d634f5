#pragma once
/// \file summary.hpp
/// Summary statistics and Student-t confidence intervals.
///
/// The paper reports every number as the mean of 10 independent runs with a
/// 90% confidence interval; this module provides exactly that estimator so
/// benches can print `mean ± halfwidth` rows in the paper's format.
///
/// Thread-safety invariant: nothing here is synchronized, and nothing here
/// may be fed from inside sweep worker threads. Parallel sweeps
/// (experiment::SweepRunner) have workers write each ScenarioResult into
/// its own cell slot by index; Summary/meanCI consume the fully
/// materialized, index-ordered results on the calling thread *after* the
/// threads join. That ordering is what keeps every printed `mean ± CI`
/// bit-identical to the serial path — floating-point accumulation is not
/// associative, so a reduction that depended on worker completion order
/// would drift run to run.

#include <cstddef>
#include <span>
#include <vector>

namespace glr::stats {

/// Point estimate plus symmetric confidence halfwidth (`mean ± halfwidth`).
struct ConfidenceInterval {
  double mean = 0.0;
  double halfwidth = 0.0;
  std::size_t samples = 0;

  [[nodiscard]] double lower() const { return mean - halfwidth; }
  [[nodiscard]] double upper() const { return mean + halfwidth; }
};

/// Incrementally accumulates count/mean/variance (Welford) plus min/max.
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided Student-t critical value for the given confidence level
/// (e.g. 0.90) and degrees of freedom. Falls back to the normal quantile for
/// df > 120.
[[nodiscard]] double studentTCritical(double confidence, std::size_t df);

/// Mean with two-sided Student-t confidence interval at `confidence`
/// (defaults to the paper's 90%). One sample yields a zero halfwidth.
[[nodiscard]] ConfidenceInterval meanCI(std::span<const double> xs,
                                        double confidence = 0.90);

/// Convenience overload.
[[nodiscard]] ConfidenceInterval meanCI(const std::vector<double>& xs,
                                        double confidence = 0.90);

}  // namespace glr::stats
