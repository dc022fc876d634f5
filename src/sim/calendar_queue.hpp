#pragma once
/// \file calendar_queue.hpp
/// Calendar-queue ordering for the simulator's far tier.
///
/// A 4-ary heap pays O(log n) per operation with a serial chain of
/// dependent loads on every pop; at city scale (100k–1M nodes) a heap of
/// every hello and custody timer outgrows every cache level. A calendar
/// queue (Brown 1988) hashes events into a wheel of day-width buckets by
/// time, making push amortized O(1) and pop a scan of the one bucket the
/// clock currently points at. The trade is that pops inside a bucket are a
/// linear min-scan, so the structure self-resizes to keep bucket occupancy
/// near one event per active day. In `kCalendar` mode the simulator puts
/// only far events here — due at least `Simulator::kNearHorizon` after the
/// clock when scheduled. Bursts scheduled at one time (the t=0 start of
/// every node, a MAC exchange) go to the near heap, never into one bucket.
///
/// Ordering is EXACTLY the heap's: the minimum record by (timeBits, seq).
/// Bucketing only narrows where that minimum is searched for — the
/// comparator is shared with the heap — so a simulator draining either
/// structure fires the identical event sequence bit-for-bit. That property
/// is pinned by tests (random schedule/cancel interleavings and the
/// KernelRegression golden) and is what makes the queue a drop-in far tier
/// behind the existing `Simulator` API rather than a fork of the kernel.
///
/// Stale records (cancelled events) are handled exactly like the heap's:
/// they linger until popped or until the owner runs a `removeIf` sweep.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_heap.hpp"

namespace glr::sim {

class CalendarQueue {
 public:
  CalendarQueue() { initBuckets(kMinBuckets); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pre-sizes the wheel for `events` concurrently-pending records so the
  /// first scheduling burst triggers no grow/rebuild cascade.
  void reserve(std::size_t events) {
    if (events / 2 > buckets_.size()) {
      rebuild(std::bit_ceil(std::max<std::size_t>(events / 2, kMinBuckets)),
              width_);
    }
  }

  void push(EventKey key, EventAux aux) {
    const std::uint64_t day = dayOf(key.timeBits);
    auto& bucket = buckets_[day & mask()];
    bucket.push_back(Rec{key, aux, day});
    ++size_;
    // An event earlier than the cursor's day would be missed by the forward
    // bucket walk; pull the cursor back so the next search starts at or
    // before it. (Scheduling never goes below `now`, but the cursor can sit
    // one day ahead after serving the tail of the previous day.)
    if (day < curDay_) curDay_ = day;
    if (topCached_) {
      if (earlierKey(key, cachedKey())) {
        topBucket_ = day & mask();
        topPos_ = bucket.size() - 1;
      }
    }
    if (size_ > buckets_.size() * kGrowOccupancy) {
      rebuild(buckets_.size() * 2, chooseWidth());
      return;
    }
  }

  /// Minimum record by (timeBits, seq). Valid until the next mutation.
  [[nodiscard]] const EventKey& topKey() {
    locateTop();
    return buckets_[topBucket_][topPos_].key;
  }
  [[nodiscard]] const EventAux& topAux() {
    locateTop();
    return buckets_[topBucket_][topPos_].aux;
  }

  void popTop() {
    locateTop();
    auto& bucket = buckets_[topBucket_];
    bucket[topPos_] = bucket.back();
    bucket.pop_back();
    // A well-calibrated wheel leaves ~1–2 records per bucket, so capacity
    // above the release threshold marks a miscalibrated burst: give the
    // block back when the bucket drains or the sliding active window would
    // pin one bloated vector per bucket it ever crossed (bucket-count x
    // burst-capacity resident, ~6 KB/node at 10k nodes before this fix).
    if (bucket.empty() && bucket.capacity() > kReleaseCapacity) {
      bucket.shrink_to_fit();
    }
    --size_;
    topCached_ = false;
    if (buckets_.size() > kMinBuckets &&
        size_ * kShrinkOccupancy < buckets_.size()) {
      rebuild(buckets_.size() / 2, chooseWidth());
      return;
    }
    // Periodic width recalibration: resizing is the only width trigger in
    // Brown's scheme, and a pre-reserved wheel may never resize — leaving
    // the initial width guess pinned and the whole pending set bunched
    // into a narrow band of buckets. Once per full queue turnover, re-pick
    // the width from the current population and rebuild in place if it is
    // off by more than 2x. Count-based, so the trigger (and the resulting
    // bucket layout) is a pure function of the operation sequence — the
    // bit-identical event order the A/B gate pins is unaffected anyway,
    // because bucket placement never decides ordering, only where the
    // min-search looks first.
    if (++popsSinceCalibrate_ >= size_ + kMinBuckets) {
      popsSinceCalibrate_ = 0;
      const double w = chooseWidth();
      if (w > 2.0 * width_ || w < 0.5 * width_) {
        rebuild(buckets_.size(), w);
      } else {
        // Capacity sweep at the same once-per-turnover cadence (rebuild
        // reallocates everything anyway, so only the no-rebuild path needs
        // it): empty buckets keeping a block above the sweep threshold are
        // returned to the allocator. Doing this here instead of on every
        // pop matters — a cap-8 bucket in the active window refills within
        // the same turnover, and releasing it per-drain doubles the
        // kernel's allocation traffic (measured 2x scenario wall time).
        // One sweep per turnover frees the same memory with O(1) amortized
        // cost per event.
        for (auto& b : buckets_) {
          if (b.empty() && b.capacity() > kSweepCapacity) b.shrink_to_fit();
        }
      }
    }
  }

  /// Removes every record matching `pred` (used for bulk reclamation of
  /// cancelled events, mirroring the heap's compaction sweep). O(n).
  template <class Pred>
  void removeIf(Pred pred) {
    for (auto& bucket : buckets_) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < bucket.size(); ++r) {
        if (!pred(bucket[r].aux)) bucket[w++] = bucket[r];
      }
      size_ -= bucket.size() - w;
      bucket.resize(w);
    }
    topCached_ = false;
  }

 private:
  struct Rec {
    EventKey key;
    EventAux aux;
    std::uint64_t day;  // floor(time / width) at insertion width
  };

  static constexpr std::size_t kMinBuckets = 32;
  /// Grow when buckets hold more than this many records on average…
  static constexpr std::size_t kGrowOccupancy = 2;
  /// …shrink only when occupancy drops below 1/8 (hysteresis gap avoids
  /// rebuild thrash around a stable queue depth).
  static constexpr std::size_t kShrinkOccupancy = 8;
  /// Bucket capacity above which an emptied bucket's block is returned to
  /// the allocator immediately on drain (see popTop). High enough that a
  /// calibrated wheel never churns; low enough that burst bloat cannot
  /// stick to the whole wheel.
  static constexpr std::size_t kReleaseCapacity = 8;
  /// Tighter bar used by the once-per-turnover sweep: steady-state buckets
  /// hold 1-2 records (capacity <= 4); anything above is burst residue.
  static constexpr std::size_t kSweepCapacity = 4;

  [[nodiscard]] std::size_t mask() const { return buckets_.size() - 1; }

  [[nodiscard]] const EventKey& cachedKey() const {
    return buckets_[topBucket_][topPos_].key;
  }

  [[nodiscard]] std::uint64_t dayOf(std::uint64_t timeBits) const {
    const double t = std::bit_cast<double>(timeBits);
    const double d = t * invWidth_;
    // Times beyond 2^63 days collapse into one far day; ordering never
    // depends on day values (the min-search compares full keys), only
    // bucket placement does, so the clamp is safe.
    return d >= 9.0e18 ? std::uint64_t{1} << 63
                       : static_cast<std::uint64_t>(d);
  }

  void initBuckets(std::size_t n) {
    buckets_.assign(n, {});
    curDay_ = 0;
    topCached_ = false;
  }

  /// Finds the minimum record: walk buckets day by day from the cursor; a
  /// record belongs to the cursor's day iff its stored day matches. One full
  /// revolution without a hit means every event is more than a wheel-year
  /// away — fall back to a direct min over all records and jump the cursor.
  void locateTop() {
    if (topCached_) return;
    assert(size_ > 0 && "locateTop on empty CalendarQueue");
    std::uint64_t day = curDay_;
    for (std::size_t probed = 0; probed < buckets_.size(); ++probed, ++day) {
      const auto& bucket = buckets_[day & mask()];
      std::size_t best = bucket.size();
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].day != day) continue;
        if (best == bucket.size() || earlierKey(bucket[i].key, bucket[best].key)) {
          best = i;
        }
      }
      if (best != bucket.size()) {
        curDay_ = day;
        topBucket_ = day & mask();
        topPos_ = best;
        topCached_ = true;
        return;
      }
    }
    // Direct search (rare: sparse far-future tail).
    std::size_t bestB = 0;
    std::size_t bestP = 0;
    bool found = false;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
        if (!found || earlierKey(buckets_[b][i].key,
                                 buckets_[bestB][bestP].key)) {
          bestB = b;
          bestP = i;
          found = true;
        }
      }
    }
    assert(found);
    curDay_ = buckets_[bestB][bestP].day;
    topBucket_ = bestB;
    topPos_ = bestP;
    topCached_ = true;
  }

  /// Picks a bucket width from the current population: ~3x the mean gap of
  /// the earliest records (Brown's sampling, computed over the k smallest so
  /// a sparse far-future tail cannot inflate the width and collapse the
  /// active window into one bucket). Deterministic: the sampled set is the
  /// k minimum keys, unique because seq is unique.
  [[nodiscard]] double chooseWidth() {
    if (size_ < 2) return width_;
    scratch_.clear();
    for (const auto& bucket : buckets_) {
      for (const auto& rec : bucket) scratch_.push_back(rec.key);
    }
    const std::size_t k = std::min<std::size_t>(scratch_.size(), 64);
    std::nth_element(scratch_.begin(), scratch_.begin() + (k - 1),
                     scratch_.end(),
                     [](const EventKey& a, const EventKey& b) {
                       return earlierKey(a, b);
                     });
    auto timeOf = [](const EventKey& key) {
      return std::bit_cast<double>(key.timeBits);
    };
    double lo = timeOf(scratch_[0]);
    double hi = lo;
    for (std::size_t i = 1; i < k; ++i) {
      lo = std::min(lo, timeOf(scratch_[i]));
      hi = std::max(hi, timeOf(scratch_[i]));
    }
    const double span = hi - lo;
    if (!(span > 0.0)) return width_;
    return 3.0 * span / static_cast<double>(k - 1);
  }

  void rebuild(std::size_t newBucketCount, double newWidth) {
    scratchRecs_.clear();
    scratchRecs_.reserve(size_);
    for (auto& bucket : buckets_) {
      scratchRecs_.insert(scratchRecs_.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    if (newBucketCount != buckets_.size()) {
      buckets_.resize(newBucketCount);
    }
    width_ = newWidth;
    invWidth_ = 1.0 / width_;
    bool haveMin = false;
    std::uint64_t minDay = 0;
    EventKey minKey{};
    for (auto& rec : scratchRecs_) {
      rec.day = dayOf(rec.key.timeBits);
      buckets_[rec.day & mask()].push_back(rec);
      if (!haveMin || earlierKey(rec.key, minKey)) {
        haveMin = true;
        minKey = rec.key;
        minDay = rec.day;
      }
    }
    curDay_ = haveMin ? minDay : 0;
    topCached_ = false;
  }

  std::vector<std::vector<Rec>> buckets_;
  double width_ = 1.0e-3;
  double invWidth_ = 1.0e3;
  std::size_t size_ = 0;
  std::uint64_t curDay_ = 0;
  std::size_t popsSinceCalibrate_ = 0;
  bool topCached_ = false;
  std::size_t topBucket_ = 0;
  std::size_t topPos_ = 0;
  std::vector<EventKey> scratch_;
  std::vector<Rec> scratchRecs_;
};

}  // namespace glr::sim
