// Property tests for the online statistics layer (stats/sketch.hpp): the
// t-digest-style quantile sketch and the streaming moment accumulator that
// replaced MetricsCollector's stored per-message latency state.
//
// The sketch's contract has two parts, each pinned here:
//  1. Accuracy: quantile estimates stay within a tight *rank* error of the
//     exact sorted order statistics across adversarial distributions
//     (uniform, bimodal, heavy-tail, constant, n < 5) — rank error is the
//     right metric for a t-digest, whose value error on a flat region can
//     be arbitrary while the rank stays exact.
//  2. Determinism: results are a pure function of the add() sequence, so
//     scenario latency quantiles are bit-identical across sweep thread
//     counts (the PR-3 contract, checked end-to-end through SweepRunner —
//     bitIdenticalIgnoringWall now covers the latency sketch fields).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "sim/rng.hpp"
#include "stats/sketch.hpp"

namespace {

using glr::stats::Moments;
using glr::stats::QuantileSketch;

// Exact quantile with the midpoint-interpolation convention the sketch
// uses: sample i (sorted) sits at cumulative rank i + 0.5 of n, linear in
// between, clamped to min/max at the ends.
double exactQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double target = q * n;
  if (target <= 0.5) return v.front();
  if (target >= n - 0.5) return v.back();
  const auto lo = static_cast<std::size_t>(target - 0.5);
  const double frac = (target - 0.5) - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

// Fraction of samples <= x: the empirical CDF used for rank-error checks.
double empiricalRank(const std::vector<double>& sorted, double x) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

constexpr double kProbes[] = {0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99};

// Rank error of every probe quantile against the exact empirical CDF. The
// bound (1.5%) is far looser than t-digest theory promises at compression
// 200 (~0.1% at the median, tighter at the tails) but tight enough to catch
// a broken scale function or a mis-weighted merge instantly.
void expectAccurate(const QuantileSketch& sketch, std::vector<double> samples,
                    const char* label) {
  std::sort(samples.begin(), samples.end());
  for (const double q : kProbes) {
    const double est = sketch.quantile(q);
    const double rank = empiricalRank(samples, est);
    EXPECT_NEAR(rank, q, 0.015)
        << label << ": quantile(" << q << ") = " << est
        << " has empirical rank " << rank;
    EXPECT_GE(est, samples.front()) << label;
    EXPECT_LE(est, samples.back()) << label;
  }
}

std::vector<double> uniformSamples(std::size_t n, std::uint64_t seed) {
  glr::sim::Rng rng{seed};
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.uniform(0.0, 100.0));
  return v;
}

std::vector<double> bimodalSamples(std::size_t n, std::uint64_t seed) {
  glr::sim::Rng rng{seed};
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Two well-separated modes, 70/30 — the shape that breaks naive
    // histogram-bucket estimators.
    v.push_back(rng.uniform01() < 0.7 ? rng.uniform(1.0, 2.0)
                                      : rng.uniform(1000.0, 1001.0));
  }
  return v;
}

std::vector<double> heavyTailSamples(std::size_t n, std::uint64_t seed) {
  glr::sim::Rng rng{seed};
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Pareto(alpha = 1.2): infinite variance, the tail that matters for
    // p99 latency estimation.
    const double u = std::max(rng.uniform01(), 1e-12);
    v.push_back(std::pow(u, -1.0 / 1.2));
  }
  return v;
}

QuantileSketch sketchOf(const std::vector<double>& samples) {
  QuantileSketch s;
  for (const double x : samples) s.add(x);
  return s;
}

// ---------------------------------------------------------------------------
// Accuracy across adversarial distributions.
// ---------------------------------------------------------------------------

TEST(QuantileSketchAccuracy, Uniform) {
  const auto samples = uniformSamples(100000, 42);
  expectAccurate(sketchOf(samples), samples, "uniform");
}

TEST(QuantileSketchAccuracy, Bimodal) {
  const auto samples = bimodalSamples(100000, 43);
  expectAccurate(sketchOf(samples), samples, "bimodal");
}

TEST(QuantileSketchAccuracy, HeavyTail) {
  const auto samples = heavyTailSamples(100000, 44);
  expectAccurate(sketchOf(samples), samples, "heavy-tail");
}

TEST(QuantileSketchAccuracy, ConstantIsExact) {
  QuantileSketch s;
  for (int i = 0; i < 50000; ++i) s.add(7.25);
  for (const double q : kProbes) EXPECT_EQ(s.quantile(q), 7.25);
  EXPECT_EQ(s.min(), 7.25);
  EXPECT_EQ(s.max(), 7.25);
}

TEST(QuantileSketchAccuracy, TinyInputsAreExact) {
  // n < 5: every sample is its own centroid, so the sketch must reproduce
  // exact order-statistic interpolation (midpoint convention).
  const std::vector<std::vector<double>> corpora = {
      {3.0},
      {3.0, 1.0},
      {10.0, -5.0, 2.5},
      {4.0, 4.0, 1.0, 9.0},
  };
  for (const auto& values : corpora) {
    const QuantileSketch s = sketchOf(values);
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      EXPECT_DOUBLE_EQ(s.quantile(q), exactQuantile(values, q))
          << "n=" << values.size() << " q=" << q;
    }
  }
}

TEST(QuantileSketchAccuracy, EmptySketchReturnsZero) {
  const QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(QuantileSketchAccuracy, MemoryStaysBounded) {
  // The whole point: centroid count is bounded by compression, not n.
  QuantileSketch s;
  std::vector<double> samples;
  samples.reserve(1000000);
  glr::sim::Rng rng{7};
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.uniform(0.0, 1e6);
    samples.push_back(x);
    s.add(x);
  }
  EXPECT_EQ(s.count(), 1000000u);
  EXPECT_LE(s.centroidCount(), s.maxCentroids());
  expectAccurate(s, samples, "1M uniform");
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(QuantileSketchDeterminism, DeterministicGivenSameSequence) {
  // Two sketches fed the identical sequence answer identically, bit for
  // bit — the property the sweep determinism contract rides on.
  const auto samples = heavyTailSamples(50000, 99);
  const QuantileSketch s1 = sketchOf(samples);
  const QuantileSketch s2 = sketchOf(samples);
  for (const double q : kProbes) EXPECT_EQ(s1.quantile(q), s2.quantile(q));
}

// ---------------------------------------------------------------------------
// Streaming moments.
// ---------------------------------------------------------------------------

TEST(MomentsLaws, MatchesTwoPassReference) {
  const auto samples = bimodalSamples(20000, 5);
  Moments m;
  for (const double x : samples) m.add(x);

  double mean = 0.0;
  for (const double x : samples) mean += x;
  mean /= static_cast<double>(samples.size());
  double m2 = 0.0;
  for (const double x : samples) m2 += (x - mean) * (x - mean);
  const double var = m2 / static_cast<double>(samples.size() - 1);

  EXPECT_EQ(m.count(), samples.size());
  EXPECT_NEAR(m.mean(), mean, 1e-9 * std::abs(mean));
  EXPECT_NEAR(m.variance(), var, 1e-9 * var);
  EXPECT_EQ(m.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(m.max(), *std::max_element(samples.begin(), samples.end()));
  // Bimodal 70/30 with the high mode far right: strong positive skew.
  EXPECT_GT(m.skewness(), 0.5);
}

TEST(MomentsLaws, DegenerateInputs) {
  Moments empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.variance(), 0.0);
  EXPECT_EQ(empty.stddev(), 0.0);
  EXPECT_EQ(empty.skewness(), 0.0);
  EXPECT_EQ(empty.kurtosisExcess(), 0.0);

  Moments one;
  one.add(3.0);
  EXPECT_EQ(one.mean(), 3.0);
  EXPECT_EQ(one.variance(), 0.0);

  Moments constant;
  for (int i = 0; i < 100; ++i) constant.add(5.0);
  EXPECT_EQ(constant.mean(), 5.0);
  EXPECT_EQ(constant.variance(), 0.0);
  EXPECT_EQ(constant.skewness(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: scenario latency quantiles across thread counts.
// ---------------------------------------------------------------------------

TEST(SketchSweepDeterminism, LatencyQuantilesBitIdenticalAcrossThreadCounts) {
  using glr::experiment::ScenarioConfig;
  using glr::experiment::ScenarioResult;
  using glr::experiment::SweepRunner;

  ScenarioConfig cfg;
  cfg.simTime = 120.0;
  cfg.numMessages = 60;
  cfg.radius = 100.0;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.seed = 7;

  SweepRunner::Options serialOpts;
  serialOpts.threads = 1;
  SweepRunner serial{serialOpts};
  const std::vector<ScenarioResult> base = serial.run({cfg}, 3).front();

  SweepRunner::Options poolOpts;
  poolOpts.threads = 3;
  SweepRunner pool{poolOpts};
  const std::vector<ScenarioResult> parallel = pool.run({cfg}, 3).front();

  ASSERT_EQ(parallel.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    // bitIdenticalIgnoringWall covers latencyP50/P90/P99/min/max/stddev
    // since the sketch landed in ScenarioResult; spell the key ones out
    // anyway so a comparator regression cannot mask a sketch one.
    EXPECT_EQ(base[i].latencyP50, parallel[i].latencyP50) << i;
    EXPECT_EQ(base[i].latencyP99, parallel[i].latencyP99) << i;
    EXPECT_EQ(base[i].latencyStddev, parallel[i].latencyStddev) << i;
    EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(base[i],
                                                          parallel[i]))
        << "replicate " << i << " diverged across thread counts";
  }
  // A delivered run actually exercises the sketch.
  ASSERT_GT(base.front().delivered, 0u);
  EXPECT_GT(base.front().latencyP99, 0.0);
  EXPECT_GE(base.front().latencyP99, base.front().latencyP50);
  EXPECT_GE(base.front().latencyMax, base.front().latencyP99);
  EXPECT_GE(base.front().latencyP50, base.front().latencyMin);
}

}  // namespace
