// Tests for the statistics module: Welford summaries, merging, and the
// Student-t confidence intervals the paper's tables are reported with.

#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using glr::stats::ConfidenceInterval;
using glr::stats::meanCI;
using glr::stats::studentTCritical;
using glr::stats::Summary;

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(Summary, KnownMeanAndVariance) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StudentT, PaperCriticalValue) {
  // The paper averages 10 runs: df = 9 at 90% confidence.
  EXPECT_NEAR(studentTCritical(0.90, 9), 1.833, 1e-3);
}

TEST(StudentT, KnownValues) {
  EXPECT_NEAR(studentTCritical(0.90, 1), 6.314, 1e-3);
  EXPECT_NEAR(studentTCritical(0.95, 4), 2.776, 1e-3);
  EXPECT_NEAR(studentTCritical(0.99, 30), 2.750, 1e-3);
  // Large df approaches the normal quantile.
  EXPECT_NEAR(studentTCritical(0.90, 100000), 1.645, 2e-3);
  EXPECT_NEAR(studentTCritical(0.95, 100000), 1.960, 2e-3);
}

TEST(StudentT, MonotoneDecreasingInDf) {
  for (std::size_t df = 1; df < 200; ++df) {
    EXPECT_GE(studentTCritical(0.90, df), studentTCritical(0.90, df + 1))
        << "df=" << df;
  }
}

TEST(StudentT, ZeroDfThrows) {
  EXPECT_THROW((void)studentTCritical(0.90, 0), std::invalid_argument);
}

TEST(MeanCI, HandComputedExample) {
  // xs = {1, 2, 3, 4, 5}: mean 3, sd sqrt(2.5), se sqrt(0.5), t(0.90,4)=2.132.
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const ConfidenceInterval ci = meanCI(xs, 0.90);
  EXPECT_EQ(ci.samples, 5u);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.halfwidth, 2.132 * std::sqrt(0.5), 1e-3);
  EXPECT_LT(ci.lower(), ci.mean);
  EXPECT_GT(ci.upper(), ci.mean);
}

TEST(MeanCI, SingleSampleHasZeroHalfwidth) {
  const std::vector<double> xs{7.5};
  const ConfidenceInterval ci = meanCI(xs);
  EXPECT_DOUBLE_EQ(ci.mean, 7.5);
  EXPECT_DOUBLE_EQ(ci.halfwidth, 0.0);
}

TEST(MeanCI, IdenticalSamplesHaveZeroHalfwidth) {
  const std::vector<double> xs{2.0, 2.0, 2.0, 2.0};
  const ConfidenceInterval ci = meanCI(xs);
  EXPECT_DOUBLE_EQ(ci.mean, 2.0);
  EXPECT_DOUBLE_EQ(ci.halfwidth, 0.0);
}

TEST(MeanCI, WiderConfidenceGivesWiderInterval) {
  const std::vector<double> xs{1.0, 5.0, 2.0, 8.0, 3.0, 9.0};
  EXPECT_LT(meanCI(xs, 0.90).halfwidth, meanCI(xs, 0.95).halfwidth);
  EXPECT_LT(meanCI(xs, 0.95).halfwidth, meanCI(xs, 0.99).halfwidth);
}

}  // namespace
