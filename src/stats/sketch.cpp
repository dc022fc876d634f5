#include "stats/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "checkpoint/codec.hpp"

namespace glr::stats {

void Moments::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Pébay one-pass update for central moments up to order 4.
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double deltaN = delta / n;
  const double deltaN2 = deltaN * deltaN;
  const double term1 = delta * deltaN * n1;
  mean_ += deltaN;
  m4_ += term1 * deltaN2 * (n * n - 3.0 * n + 3.0) + 6.0 * deltaN2 * m2_ -
         4.0 * deltaN * m3_;
  m3_ += term1 * deltaN * (n - 2.0) - 3.0 * deltaN * m2_;
  m2_ += term1;
}

double Moments::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Moments::stddev() const { return std::sqrt(variance()); }

double Moments::skewness() const {
  if (n_ < 3 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double Moments::kurtosisExcess() const {
  if (n_ < 4 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

namespace {

// k1 scale function of the merging t-digest: k(q) = δ/2π · asin(2q−1).
// A centroid may absorb neighbours while k(qRight) − k(qLeft) ≤ 1, which
// caps centroid weight near the median and forces singleton centroids at
// the extreme tails (where quantile accuracy matters most).
double k1(double q, double compression) {
  q = std::clamp(q, 0.0, 1.0);
  return compression / (2.0 * std::numbers::pi) * std::asin(2.0 * q - 1.0);
}

}  // namespace

QuantileSketch::QuantileSketch(std::size_t compression)
    : compression_(std::max<std::size_t>(compression, 20)),
      // The k1 merge provably leaves at most ceil(δ·π/2)+1 centroids; round
      // up generously so compression never reallocates.
      centroidCap_(2 * compression_ + 8) {
  centroids_.reserve(centroidCap_);
  buffer_.reserve(4 * compression_);
  scratch_.reserve(centroidCap_);
}

void QuantileSketch::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  buffer_.push_back(x);
  if (buffer_.size() >= buffer_.capacity()) flush();
}

void QuantileSketch::flush() const {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());

  // Merge the sorted buffer with the sorted centroid list, compressing on
  // the fly: a running centroid absorbs the next point while the k1 bound
  // allows it, otherwise it is emitted and a new one starts.
  scratch_.clear();
  const double total = static_cast<double>(n_);
  double wSoFar = 0.0;  // weight fully emitted so far
  Centroid cur{0.0, 0.0};
  double curSum = 0.0;  // weighted sum backing cur.mean (precision)

  std::size_t ci = 0;
  std::size_t bi = 0;
  auto take = [&]() -> Centroid {
    if (ci < centroids_.size() &&
        (bi >= buffer_.size() || centroids_[ci].mean <= buffer_[bi])) {
      return centroids_[ci++];
    }
    return Centroid{buffer_[bi++], 1.0};
  };

  const std::size_t pieces = centroids_.size() + buffer_.size();
  for (std::size_t i = 0; i < pieces; ++i) {
    const Centroid next = take();
    if (cur.weight == 0.0) {
      cur = next;
      curSum = next.mean * next.weight;
      continue;
    }
    const double qLeft = wSoFar / total;
    const double qRight = (wSoFar + cur.weight + next.weight) / total;
    if (k1(qRight, static_cast<double>(compression_)) -
            k1(qLeft, static_cast<double>(compression_)) <=
        1.0) {
      curSum += next.mean * next.weight;
      cur.weight += next.weight;
      cur.mean = curSum / cur.weight;
    } else {
      scratch_.push_back(cur);
      wSoFar += cur.weight;
      cur = next;
      curSum = next.mean * next.weight;
    }
  }
  if (cur.weight > 0.0) scratch_.push_back(cur);

  centroids_.swap(scratch_);
  buffer_.clear();
}

std::size_t QuantileSketch::centroidCount() const {
  flush();
  return centroids_.size();
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  flush();
  if (centroids_.size() == 1) return centroids_[0].mean;

  // Interpolate over centroid midpoints: centroid i covers cumulative
  // weight (wBefore + weight/2), the standard t-digest convention. Results
  // are exact order-statistic interpolation while every centroid is a
  // singleton (pre-compression).
  const double total = static_cast<double>(n_);
  const double target = q * total;

  double cum = 0.0;  // weight strictly before current centroid
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    const double mid = cum + centroids_[i].weight / 2.0;
    if (target < mid || i + 1 == centroids_.size()) {
      if (i == 0 && target < mid) {
        // Below the first midpoint: interpolate from the true minimum.
        const double frac = mid > 0.0 ? std::clamp(target / mid, 0.0, 1.0) : 1.0;
        return min_ + frac * (centroids_[0].mean - min_);
      }
      if (i + 1 == centroids_.size() && target >= mid) {
        // Above the last midpoint: interpolate toward the true maximum.
        const double span = total - mid;
        const double frac =
            span > 0.0 ? std::clamp((target - mid) / span, 0.0, 1.0) : 0.0;
        return centroids_[i].mean + frac * (max_ - centroids_[i].mean);
      }
      const double prevMid = cum - centroids_[i - 1].weight / 2.0;
      const double span = mid - prevMid;
      const double frac =
          span > 0.0 ? std::clamp((target - prevMid) / span, 0.0, 1.0) : 0.0;
      return centroids_[i - 1].mean +
             frac * (centroids_[i].mean - centroids_[i - 1].mean);
    }
    cum += centroids_[i].weight;
  }
  return max_;  // unreachable; loop always returns on the last centroid
}

template <class Ar>
void Moments::visit(Ar& ar) {
  // u64, not a bounded count: observation counts can dwarf the section.
  ar.u64(n_);
  ar.f64(mean_);
  ar.f64(m2_);
  ar.f64(m3_);
  ar.f64(m4_);
  ar.f64(min_);
  ar.f64(max_);
}

template <class Ar>
void QuantileSketch::visit(Ar& ar) {
  ar.expectEqual(compression_, "quantile sketch compression");
  ar.u64(n_);
  ar.f64(min_);
  ar.f64(max_);
  ar.sequence(centroids_, 16, [&](Centroid& c) {
    ar.f64(c.mean);
    ar.f64(c.weight);
  });
  ar.sequence(buffer_, 8, [&](double& v) { ar.f64(v); });
}

template void Moments::visit(ckpt::Encoder&);
template void Moments::visit(ckpt::Decoder&);
template void QuantileSketch::visit(ckpt::Encoder&);
template void QuantileSketch::visit(ckpt::Decoder&);

}  // namespace glr::stats
