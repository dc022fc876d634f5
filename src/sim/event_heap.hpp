#pragma once
/// \file event_heap.hpp
/// The kernel's event key and its intrusive 4-ary heap.
///
/// The simulator keeps two instances of `EventHeap`: a small near tier for
/// events due within `Simulator::kNearHorizon` when scheduled, and (in the
/// default mode) the far tier behind it. `CalendarQueue` exposes the same
/// interface over the same key, so either can serve as the far tier.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace glr::sim {

/// What every queue orders: the IEEE-754 bit pattern of a non-negative
/// time (orders identically to the double) and the insertion sequence
/// number that breaks ties deterministically.
struct EventKey {
  std::uint64_t timeBits;
  std::uint64_t seq;
};

/// Queue payload: a {slot, generation} reference into the simulator's slab.
struct EventAux {
  std::uint32_t slot;
  std::uint32_t generation;
};

/// Distinct times dominate and the equality branch predicts ~always taken;
/// the data-random outcome below it compiles to setcc/cmov.
[[nodiscard]] inline bool earlierKey(const EventKey& a, const EventKey& b) {
  if (a.timeBits != b.timeBits) return a.timeBits < b.timeBits;
  return a.seq < b.seq;
}

/// Min-heap of (key, aux) records by `earlierKey`, split structure-of-
/// arrays style: the sift loops touch only the 16-byte key array (4
/// children span at most two cache lines instead of three), while the
/// {slot, generation} payload rides in a parallel array. Pops move small
/// records, never closures, and keys are pure integer compares (no
/// NaN/denormal edge cases in the hot loop).
class EventHeap {
 public:
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  void reserve(std::size_t n) {
    keys_.reserve(n);
    aux_.reserve(n);
  }

  [[nodiscard]] const EventKey& topKey() const { return keys_.front(); }
  [[nodiscard]] const EventAux& topAux() const { return aux_.front(); }

  void push(EventKey key, EventAux aux) {
    // Hole insertion: shift parents down into the hole and place the record
    // once, instead of swap chains (one store per level, not three).
    std::size_t i = keys_.size();
    keys_.push_back(key);
    aux_.push_back(aux);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlierKey(key, keys_[parent])) break;
      keys_[i] = keys_[parent];
      aux_[i] = aux_[parent];
      i = parent;
    }
    keys_[i] = key;
    aux_[i] = aux;
  }

  void popTop() {
    const EventKey last = keys_.back();
    const EventAux lastAux = aux_.back();
    keys_.pop_back();
    aux_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0) return;
    // Bottom-up deletion (Wegener): descend the min-child path all the way
    // to a leaf — the replacement comes from the back of the heap, so it
    // nearly always belongs at the bottom and comparing it against every
    // level on the way down is wasted work — then bubble it up from the
    // leaf hole, which almost always stops immediately. Min-child selection
    // is a two-round tournament of conditional moves: the outcomes are
    // data-random, so branching on them would mispredict half the time.
    // Only the key array is touched per comparison; the next level's
    // children are prefetched as soon as their index is known (a far tier
    // outgrows L2 in large scenarios, and the sift is otherwise a serial
    // chain of dependent loads).
    std::size_t i = 0;
    for (;;) {
      static_assert(kArity == 4, "min-child tournament is unrolled for 4");
      const std::size_t firstChild = i * kArity + 1;
      if (firstChild + kArity <= n) {
        const EventKey* ch = &keys_[firstChild];
        const std::size_t a =
            earlierKey(ch[1], ch[0]) ? firstChild + 1 : firstChild;
        const std::size_t b =
            earlierKey(ch[3], ch[2]) ? firstChild + 3 : firstChild + 2;
        const std::size_t best = earlierKey(keys_[b], keys_[a]) ? b : a;
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t next = best * kArity + 1;
        if (next < n) __builtin_prefetch(keys_.data() + next);
#endif
        keys_[i] = keys_[best];
        aux_[i] = aux_[best];
        i = best;
      } else if (firstChild < n) {
        std::size_t best = firstChild;
        for (std::size_t c = firstChild + 1; c < n; ++c) {
          best = earlierKey(keys_[c], keys_[best]) ? c : best;
        }
        keys_[i] = keys_[best];
        aux_[i] = aux_[best];
        i = best;
      } else {
        break;
      }
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlierKey(last, keys_[parent])) break;
      keys_[i] = keys_[parent];
      aux_[i] = aux_[parent];
      i = parent;
    }
    keys_[i] = last;
    aux_[i] = lastAux;
  }

  /// Removes every record whose aux matches `pred` in one O(n) filter +
  /// Floyd heapify pass (the simulator's bulk reclamation of cancelled
  /// events).
  template <class Pred>
  void removeIf(Pred pred) {
    const std::size_t n = keys_.size();
    std::size_t w = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (!pred(aux_[r])) {
        keys_[w] = keys_[r];
        aux_[w] = aux_[r];
        ++w;
      }
    }
    keys_.resize(w);
    aux_.resize(w);
    if (w < 2) return;
    // The filter pass kept the survivors in heap-ish order, so most holes
    // stop immediately.
    for (std::size_t i = (w - 2) / kArity + 1; i-- > 0;) {
      siftDownHole(i, keys_[i], aux_[i]);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  /// Sinks the record in the hole at `i` to its place, assuming children of
  /// `i` may violate the heap property with respect to (key, aux).
  void siftDownHole(std::size_t i, EventKey key, EventAux aux) {
    const std::size_t n = keys_.size();
    for (;;) {
      const std::size_t firstChild = i * kArity + 1;
      if (firstChild >= n) break;
      const std::size_t lastChild = std::min(firstChild + kArity, n);
      std::size_t best = firstChild;
      for (std::size_t c = firstChild + 1; c < lastChild; ++c) {
        best = earlierKey(keys_[c], keys_[best]) ? c : best;
      }
      if (!earlierKey(keys_[best], key)) break;
      keys_[i] = keys_[best];
      aux_[i] = aux_[best];
      i = best;
    }
    keys_[i] = key;
    aux_[i] = aux;
  }

  std::vector<EventKey> keys_;
  std::vector<EventAux> aux_;
};

}  // namespace glr::sim
