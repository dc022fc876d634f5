#pragma once
/// \file sketch.hpp
/// Online statistics with a hard memory bound: a mergeable t-digest-style
/// quantile sketch and a streaming central-moment accumulator.
///
/// Million-message runs cannot keep per-message latency vectors in RAM, so
/// MetricsCollector feeds every first-delivery latency into these instead:
/// the sketch answers quantile queries (p50/p90/p99 in ScenarioResult) from
/// O(compression) centroids regardless of sample count, and Moments keeps
/// count/mean/variance/skewness/kurtosis plus min/max in O(1) space.
///
/// Determinism contract (the PR-3 sweep invariant): both structures are
/// pure functions of their add()/merge() call sequence — no randomness, no
/// wall-clock, no allocation-order dependence — so a scenario that feeds
/// them in simulator event order produces bit-identical sketches on any
/// worker thread of a sweep. Merging is deterministic in merge order;
/// like every floating-point reduction here, it is associative only up to
/// rounding (test_stats_sketch.cpp pins the error bound).

#include <cstddef>
#include <vector>

namespace glr::stats {

/// Streaming central moments (Welford/Pébay updates): count, mean, M2-M4,
/// min/max. merge() combines two accumulators exactly as if the right-hand
/// samples had been added after the left-hand ones (up to FP rounding).
class Moments {
 public:
  void add(double x);
  void merge(const Moments& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Fisher skewness g1; 0 for degenerate distributions (n < 3 or var 0).
  [[nodiscard]] double skewness() const;
  /// Excess kurtosis g2; 0 for degenerate distributions (n < 4 or var 0).
  [[nodiscard]] double kurtosisExcess() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Checkpoint support: bit-exact accumulator state round-trip.
  template <class Ar>
  void visit(Ar& ar);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mergeable quantile sketch after Dunning's merging t-digest: values are
/// buffered, then sort-merged into weighted centroids whose size is bounded
/// by the k1 scale function, so resolution concentrates at the tails. With
/// compression δ the sketch holds at most ~2δ centroids forever — the
/// memory bound MetricsCollector relies on at 1M+ messages.
///
/// Small inputs stay exact: until the first compression every sample is its
/// own centroid, and quantile() interpolates order statistics (midpoint
/// convention), so n < buffer-capacity queries return the same answer as a
/// sorted vector. All storage is reserved up front in the constructor; adds
/// and compressions never allocate afterwards (hot-path pin).
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t compression = 200);

  void add(double x);
  /// Folds `other` (centroids and pending buffer) into this sketch.
  void merge(const QuantileSketch& other);

  /// Quantile estimate for q in [0, 1] (clamped); 0 for an empty sketch.
  /// Exact while the sketch has never compressed (e.g. n < 5 corpora).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  /// Live centroids (post-flush); bounded by maxCentroids() forever.
  [[nodiscard]] std::size_t centroidCount() const;
  [[nodiscard]] std::size_t maxCentroids() const { return centroidCap_; }

  /// Checkpoint support: serializes the *raw* centroid list and pending
  /// buffer without flushing, so the restored sketch is in the exact
  /// in-memory state of the snapshotted one (flushing here would change
  /// when the next compression happens and diverge from the golden run).
  template <class Ar>
  void visit(Ar& ar);

 private:
  struct Centroid {
    double mean = 0.0;
    double weight = 0.0;
  };

  /// Sorts the pending buffer and k1-compresses it with the existing
  /// centroids into `scratch_`, then swaps. Mutable so quantile() const can
  /// settle pending values; the visible statistics are unchanged.
  void flush() const;

  std::size_t compression_;
  std::size_t centroidCap_;
  std::size_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<Centroid> centroids_;  // sorted by mean
  mutable std::vector<double> buffer_;       // pending unsorted samples
  mutable std::vector<Centroid> scratch_;    // compression workspace
};

}  // namespace glr::stats
