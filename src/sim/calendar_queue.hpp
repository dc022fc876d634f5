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
/// Storage is one pooled array of records with a free list. A bucket is a
/// singly linked list threaded through the pool by `uint32_t` indexes from
/// one head array, so a bucket costs 4 bytes and a record 40. Once the
/// pool has grown to the peak pending count, pushes and pops never
/// allocate, and a resize relinks the records in place: only a growing
/// head array is reallocated. Walking a linked bucket costs a cache miss
/// per record, so a bucket found long is sorted once and its later pops
/// read only its head (see `runHead_`).
///
/// Stale records (cancelled events) are handled exactly like the heap's:
/// they linger until popped or until the owner runs a `removeIf` sweep.

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_heap.hpp"

namespace glr::sim {

class CalendarQueue {
 public:
  CalendarQueue() : heads_(kMinBuckets, kNil) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pre-sizes the wheel for `events` concurrently-pending records so the
  /// first scheduling burst triggers no grow/rebuild cascade.
  void reserve(std::size_t events) {
    if (events / 2 > heads_.size()) {
      rebuild(std::bit_ceil(std::max<std::size_t>(events / 2, kMinBuckets)),
              width_);
    }
  }

  void push(EventKey key, EventAux aux) {
    const std::uint64_t day = dayOf(key.timeBits);
    const std::size_t bucket = day & mask();
    const std::uint32_t rec = acquire();
    pool_[rec] = Rec{key, aux, day, heads_[bucket]};
    heads_[bucket] = rec;
    ++size_;
    // An event earlier than the cursor's day would be missed by the forward
    // bucket walk; pull the cursor back so the next search starts at or
    // before it. (Scheduling never goes below `now`, but the cursor can sit
    // one day ahead after serving the tail of the previous day.)
    if (day < curDay_) curDay_ = day;
    if (topCached_) {
      if (earlierKey(key, pool_[top_].key)) {
        cacheTop(bucket, rec, kNil);
      } else if (bucket == topBucket_ && topPrev_ == kNil) {
        topPrev_ = rec;  // the cached top was this bucket's head
      }
    }
    if (size_ > heads_.size() * kGrowOccupancy) {
      rebuild(heads_.size() * 2, chooseWidth());
    }
  }

  /// Minimum record by (timeBits, seq). Valid until the next mutation.
  [[nodiscard]] const EventKey& topKey() {
    locateTop();
    return pool_[top_].key;
  }
  [[nodiscard]] const EventAux& topAux() {
    locateTop();
    return pool_[top_].aux;
  }

  void popTop() {
    locateTop();
    if (top_ == runHead_) runHead_ = pool_[top_].next;
    (topPrev_ == kNil ? heads_[topBucket_] : pool_[topPrev_].next) =
        pool_[top_].next;
    release(top_);
    --size_;
    topCached_ = false;
    if (heads_.size() > kMinBuckets &&
        size_ * kShrinkOccupancy < heads_.size()) {
      rebuild(heads_.size() / 2, chooseWidth());
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
        rebuild(heads_.size(), w);
      }
    }
  }

  /// Removes every record matching `pred` (used for bulk reclamation of
  /// cancelled events, mirroring the heap's compaction sweep). O(n).
  template <class Pred>
  void removeIf(Pred pred) {
    for (std::uint32_t& head : heads_) {
      for (std::uint32_t* link = &head; *link != kNil;) {
        const std::uint32_t rec = *link;
        if (pred(pool_[rec].aux)) {
          *link = pool_[rec].next;
          release(rec);
          --size_;
        } else {
          link = &pool_[rec].next;
        }
      }
    }
    runHead_ = kNil;
    topCached_ = false;
  }

 private:
  struct Rec {
    EventKey key;
    EventAux aux;
    std::uint64_t day;   // floor(time / width) at the current width
    std::uint32_t next;  // next record of its bucket (or of the free list)
  };
  static_assert(sizeof(Rec) == 40, "a pooled record is 40 bytes");

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMinBuckets = 32;
  /// Grow when buckets hold more than this many records on average…
  static constexpr std::size_t kGrowOccupancy = 2;
  /// …shrink only when occupancy drops below 1/8 (hysteresis gap avoids
  /// rebuild thrash around a stable queue depth).
  static constexpr std::size_t kShrinkOccupancy = 8;
  /// How many of the earliest records set the bucket width.
  static constexpr std::size_t kWidthSample = 64;
  /// A top search that scans more records than this in the bucket it
  /// pops from sorts that bucket (see `runHead_`).
  static constexpr std::size_t kSortAfter = 16;

  [[nodiscard]] std::size_t mask() const { return heads_.size() - 1; }

  [[nodiscard]] std::uint64_t dayOf(std::uint64_t timeBits) const {
    const double t = std::bit_cast<double>(timeBits);
    const double d = t * invWidth_;
    // Times beyond 2^63 days collapse into one far day; ordering never
    // depends on day values (the min-search compares full keys), only
    // bucket placement does, so the clamp is safe.
    return d >= 9.0e18 ? std::uint64_t{1} << 63
                       : static_cast<std::uint64_t>(d);
  }

  /// A free pool slot, reusing released ones first.
  std::uint32_t acquire() {
    if (freeHead_ == kNil) {
      pool_.emplace_back();
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t rec = freeHead_;
    freeHead_ = pool_[rec].next;
    return rec;
  }

  void release(std::uint32_t rec) {
    pool_[rec].next = freeHead_;
    freeHead_ = rec;
  }

  void cacheTop(std::size_t bucket, std::uint32_t rec, std::uint32_t prev) {
    topBucket_ = bucket;
    top_ = rec;
    topPrev_ = prev;
    topCached_ = true;
  }

  /// Finds the minimum record: walk buckets day by day from the cursor; a
  /// record belongs to the cursor's day iff its stored day matches. One full
  /// revolution without a hit means every event is more than a wheel-year
  /// away — fall back to a direct min over all records and jump the cursor.
  void locateTop() {
    if (topCached_) return;
    assert(size_ > 0 && "locateTop on empty CalendarQueue");
    std::uint64_t day = curDay_;
    for (std::size_t probed = 0; probed < heads_.size(); ++probed, ++day) {
      const std::size_t bucket = day & mask();
      std::uint32_t best = kNil;
      std::uint32_t bestPrev = kNil;
      std::size_t scanned = 0;
      for (std::uint32_t prev = kNil, r = heads_[bucket]; r != kNil;
           prev = r, r = pool_[r].next) {
        if (pool_[r].day == day &&
            (best == kNil || earlierKey(pool_[r].key, pool_[best].key))) {
          best = r;
          bestPrev = prev;
        }
        // A bucket holds no record of a day before the probed one, so the
        // sorted run's head is its earliest record of this day, if any.
        if (r == runHead_) break;
        ++scanned;
      }
      if (best != kNil) {
        if (scanned > kSortAfter) {
          sortBucket(bucket);  // its head is now `best`
          bestPrev = kNil;
        }
        curDay_ = day;
        cacheTop(bucket, best, bestPrev);
        return;
      }
    }
    // Direct search (rare: sparse far-future tail).
    std::size_t bestBucket = 0;
    std::uint32_t best = kNil;
    std::uint32_t bestPrev = kNil;
    for (std::size_t b = 0; b < heads_.size(); ++b) {
      for (std::uint32_t prev = kNil, r = heads_[b]; r != kNil;
           prev = r, r = pool_[r].next) {
        if (best == kNil || earlierKey(pool_[r].key, pool_[best].key)) {
          bestBucket = b;
          best = r;
          bestPrev = prev;
        }
      }
    }
    assert(best != kNil);
    curDay_ = pool_[best].day;
    cacheTop(bestBucket, best, bestPrev);
  }

  /// Picks a bucket width from the current population: ~3x the mean gap of
  /// the earliest records (Brown's sampling, computed over the k smallest so
  /// a sparse far-future tail cannot inflate the width and collapse the
  /// active window into one bucket). Deterministic: the sampled set is the
  /// k minimum keys, unique because seq is unique. They are gathered in a
  /// k-entry max-heap, so the sample needs no buffer the size of the queue.
  [[nodiscard]] double chooseWidth() const {
    if (size_ < 2) return width_;
    std::array<EventKey, kWidthSample> earliest{};
    std::size_t k = 0;
    const auto lessEarly = [](const EventKey& a, const EventKey& b) {
      return earlierKey(a, b);
    };
    for (const std::uint32_t head : heads_) {
      for (std::uint32_t r = head; r != kNil; r = pool_[r].next) {
        const EventKey& key = pool_[r].key;
        if (k < earliest.size()) {
          earliest[k++] = key;
          std::push_heap(earliest.begin(), earliest.begin() + k, lessEarly);
        } else if (earlierKey(key, earliest.front())) {
          std::pop_heap(earliest.begin(), earliest.end(), lessEarly);
          earliest.back() = key;
          std::push_heap(earliest.begin(), earliest.end(), lessEarly);
        }
      }
    }
    auto timeOf = [](const EventKey& key) {
      return std::bit_cast<double>(key.timeBits);
    };
    double lo = timeOf(earliest[0]);
    double hi = lo;
    for (std::size_t i = 1; i < k; ++i) {
      lo = std::min(lo, timeOf(earliest[i]));
      hi = std::max(hi, timeOf(earliest[i]));
    }
    const double span = hi - lo;
    if (!(span > 0.0)) return width_;
    return 3.0 * span / static_cast<double>(k - 1);
  }

  /// Re-hashes every record into `newBucketCount` buckets of `newWidth`:
  /// the records are unthreaded into one chain and relinked, in place.
  void rebuild(std::size_t newBucketCount, double newWidth) {
    std::uint32_t chain = kNil;
    for (std::uint32_t& head : heads_) {
      while (head != kNil) {
        const std::uint32_t rec = head;
        head = pool_[rec].next;
        pool_[rec].next = chain;
        chain = rec;
      }
    }
    heads_.assign(newBucketCount, kNil);
    width_ = newWidth;
    invWidth_ = 1.0 / width_;
    bool haveMin = false;
    std::uint64_t minDay = 0;
    EventKey minKey{};
    while (chain != kNil) {
      Rec& rec = pool_[chain];
      const std::uint32_t next = rec.next;
      rec.day = dayOf(rec.key.timeBits);
      std::uint32_t& head = heads_[rec.day & mask()];
      rec.next = head;
      head = chain;
      if (!haveMin || earlierKey(rec.key, minKey)) {
        haveMin = true;
        minKey = rec.key;
        minDay = rec.day;
      }
      chain = next;
    }
    curDay_ = haveMin ? minDay : 0;
    runHead_ = kNil;
    topCached_ = false;
  }

  /// Relinks `bucket` in ascending key order and makes it the sorted run.
  void sortBucket(std::size_t bucket) {
    sortScratch_.clear();
    for (std::uint32_t r = heads_[bucket]; r != kNil; r = pool_[r].next) {
      sortScratch_.push_back(r);
    }
    std::sort(sortScratch_.begin(), sortScratch_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return earlierKey(pool_[a].key, pool_[b].key);
              });
    std::uint32_t next = kNil;
    for (auto r = sortScratch_.rbegin(); r != sortScratch_.rend(); ++r) {
      pool_[*r].next = next;
      next = *r;
    }
    heads_[bucket] = next;
    runHead_ = next;
  }

  std::vector<Rec> pool_;
  std::uint32_t freeHead_ = kNil;
  /// First record of each bucket (kNil: empty); a power-of-two count.
  std::vector<std::uint32_t> heads_;
  double width_ = 1.0e-3;
  double invWidth_ = 1.0e3;
  std::size_t size_ = 0;
  std::uint64_t curDay_ = 0;
  std::size_t popsSinceCalibrate_ = 0;
  bool topCached_ = false;
  std::size_t topBucket_ = 0;
  std::uint32_t top_ = kNil;
  std::uint32_t topPrev_ = kNil;  // top_'s predecessor in its bucket
  /// First record of the sorted run (kNil: none): the tail of one bucket's
  /// list, from here to its end, in ascending key order. Pushes link ahead
  /// of it and pops take only its head, so the run stays sorted until a
  /// rebuild or removeIf ends it. A wheel whose width is still far too
  /// wide for its population (a pre-reserved wheel before its first
  /// recalibration) packs thousands of one day's records into a bucket;
  /// sorted once, they cost a pop one record each instead of a walk over
  /// all of them, one cache miss per record.
  std::uint32_t runHead_ = kNil;
  std::vector<std::uint32_t> sortScratch_;
};

}  // namespace glr::sim
