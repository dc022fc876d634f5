#include "stats/summary.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace glr::stats {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

namespace {

// Two-sided critical values t_{1-(1-c)/2, df}. Indexed by df-1 for df 1..30.
constexpr std::array<double, 30> kT90 = {
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
    1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
    1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
constexpr std::array<double, 30> kT95 = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
constexpr std::array<double, 30> kT99 = {
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
    3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
    2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750};

// Values for df in {40, 60, 120, inf} used for interpolation beyond 30.
struct TailRow {
  double df;
  double t90, t95, t99;
};
constexpr std::array<TailRow, 4> kTail = {{{40.0, 1.684, 2.021, 2.704},
                                           {60.0, 1.671, 2.000, 2.660},
                                           {120.0, 1.658, 1.980, 2.617},
                                           {1e18, 1.645, 1.960, 2.576}}};

double pickLevel(const TailRow& row, double confidence) {
  if (confidence <= 0.90) return row.t90;
  if (confidence <= 0.95) return row.t95;
  return row.t99;
}

}  // namespace

double studentTCritical(double confidence, std::size_t df) {
  if (df == 0) throw std::invalid_argument{"studentTCritical: df must be > 0"};
  const std::array<double, 30>* table = nullptr;
  if (confidence <= 0.90) {
    table = &kT90;
  } else if (confidence <= 0.95) {
    table = &kT95;
  } else {
    table = &kT99;
  }
  if (df <= 30) return (*table)[df - 1];
  const double dfd = static_cast<double>(df);
  // Linear interpolation in 1/df between tail rows (standard table practice).
  double prevDf = 30.0;
  double prevT = (*table)[29];
  for (const TailRow& row : kTail) {
    const double t = pickLevel(row, confidence);
    if (dfd <= row.df) {
      const double w = (1.0 / prevDf - 1.0 / dfd) / (1.0 / prevDf - 1.0 / row.df);
      return prevT + w * (t - prevT);
    }
    prevDf = row.df;
    prevT = t;
  }
  return pickLevel(kTail.back(), confidence);
}

ConfidenceInterval meanCI(std::span<const double> xs, double confidence) {
  ConfidenceInterval ci;
  Summary s;
  for (double x : xs) s.add(x);
  ci.samples = s.count();
  ci.mean = s.mean();
  if (s.count() >= 2) {
    const double se = s.stddev() / std::sqrt(static_cast<double>(s.count()));
    ci.halfwidth = studentTCritical(confidence, s.count() - 1) * se;
  }
  return ci;
}

ConfidenceInterval meanCI(const std::vector<double>& xs, double confidence) {
  return meanCI(std::span<const double>{xs.data(), xs.size()}, confidence);
}

}  // namespace glr::stats
