#pragma once
/// \file metrics.hpp
/// Scenario-wide delivery metrics shared by all agents of one run.
///
/// Memory-bounded by construction: message ids are (origin, dense per-origin
/// sequence), so creation and first-delivery state live in per-origin
/// *bitmaps* (one bit per message) instead of hash maps, and per-message
/// latencies feed online sketches (stats::QuantileSketch + stats::Moments)
/// instead of stored vectors — a 100k-node, multi-million-message run costs
/// ~2 bits per message plus O(sketch compression), flat for the whole run.
/// The experiment layer reads aggregates to produce the paper's
/// delivery-ratio / latency / hops / storage rows plus latency quantiles.
///
/// Determinism: every statistic is a pure function of the (onCreated,
/// onDelivered) call sequence, which the simulator kernel fully orders — so
/// results are bit-identical across sweep thread counts (PR-3 contract).
/// The scalar latency/hops sums accumulate in exactly the same order and
/// from exactly the same operands as the pre-sketch implementation
/// (Message::created travels verbatim with the message), keeping every
/// pinned golden double bit-identical.

#include <cstdint>
#include <vector>

#include "dtn/message.hpp"
#include "sim/simulator.hpp"
#include "stats/sketch.hpp"
#include "trace/recorder.hpp"

namespace glr::dtn {

class MetricsCollector {
 public:
  /// Optional flight recorder: when set, creations/deliveries/duplicates
  /// are traced (EventType kCreated/kDelivered/kDuplicate). Null = off.
  void setTrace(trace::Recorder* trace) { trace_ = trace; }

  void onCreated(const Message& m) {
    if (!testAndSet(createdBits_, m.id)) ++createdCount_;
    if (trace_ != nullptr) {
      trace_->record(trace::EventType::kCreated, m.id.src, m.dstNode,
                     m.id.src, m.id.seq);
    }
  }

  /// Records the first delivery of `m` at time `t` with the delivering
  /// copy's hop count; later copies count as duplicates.
  void onDelivered(const Message& m, sim::SimTime t, int hops) {
    if (!test(createdBits_, m.id)) return;  // unknown message: ignore
    if (testAndSet(deliveredBits_, m.id)) {
      ++duplicateDeliveries_;
      if (trace_ != nullptr) {
        trace_->record(trace::EventType::kDuplicate, m.dstNode, m.id.src,
                       m.id.src, m.id.seq, clampHops(hops),
                       static_cast<std::uint8_t>(m.flag));
      }
      return;
    }
    ++deliveredCount_;
    const double latency = t - m.created;
    latencySum_ += latency;
    hopsSum_ += hops;
    latencySketch_.add(latency);
    latencyMoments_.add(latency);
    if (trace_ != nullptr) {
      trace_->record(trace::EventType::kDelivered, m.dstNode, m.id.src,
                     m.id.src, m.id.seq, clampHops(hops),
                     static_cast<std::uint8_t>(m.flag));
    }
  }

  [[nodiscard]] std::size_t createdCount() const { return createdCount_; }
  [[nodiscard]] std::size_t deliveredCount() const { return deliveredCount_; }
  [[nodiscard]] double deliveryRatio() const {
    return createdCount_ == 0 ? 0.0
                              : static_cast<double>(deliveredCount_) /
                                    static_cast<double>(createdCount_);
  }
  /// Mean creation-to-first-delivery latency over delivered messages.
  [[nodiscard]] double avgLatency() const {
    return deliveredCount_ == 0
               ? 0.0
               : latencySum_ / static_cast<double>(deliveredCount_);
  }
  /// Mean hop count of the first-delivered copy.
  [[nodiscard]] double avgHops() const {
    return deliveredCount_ == 0
               ? 0.0
               : hopsSum_ / static_cast<double>(deliveredCount_);
  }
  [[nodiscard]] std::uint64_t duplicateDeliveries() const {
    return duplicateDeliveries_;
  }

  /// Online first-delivery latency distribution (quantiles, moments).
  [[nodiscard]] const stats::QuantileSketch& latencySketch() const {
    return latencySketch_;
  }
  [[nodiscard]] const stats::Moments& latencyMoments() const {
    return latencyMoments_;
  }

  /// Checkpoint support: bitmaps, scalar sums and both latency sketches
  /// round-trip bit-exactly. The trace pointer is wiring, not state, and is
  /// left untouched.
  template <class Ar>
  void visit(Ar& ar);

 private:
  // One bitmap per origin node, indexed by the dense per-origin sequence.
  using Bitmap = std::vector<std::uint64_t>;

  static std::uint16_t clampHops(int hops) {
    return hops < 0 ? 0
                    : static_cast<std::uint16_t>(
                          hops > 0xFFFF ? 0xFFFF : hops);
  }

  [[nodiscard]] static bool test(const std::vector<Bitmap>& bits,
                                 const MessageId& id) {
    if (id.src < 0 || id.seq < 0) return false;
    const auto src = static_cast<std::size_t>(id.src);
    if (src >= bits.size()) return false;
    const auto word = static_cast<std::size_t>(id.seq) >> 6;
    if (word >= bits[src].size()) return false;
    return (bits[src][word] >> (id.seq & 63)) & 1u;
  }

  /// Sets the bit, growing the bitmap as needed; returns the prior value.
  [[nodiscard]] static bool testAndSet(std::vector<Bitmap>& bits,
                                       const MessageId& id) {
    if (id.src < 0 || id.seq < 0) return true;  // malformed: swallow
    const auto src = static_cast<std::size_t>(id.src);
    if (src >= bits.size()) bits.resize(src + 1);
    Bitmap& b = bits[src];
    const auto word = static_cast<std::size_t>(id.seq) >> 6;
    if (word >= b.size()) b.resize(word + 1, 0);
    const std::uint64_t maskBit = std::uint64_t{1} << (id.seq & 63);
    const bool was = (b[word] & maskBit) != 0;
    b[word] |= maskBit;
    return was;
  }

  std::vector<Bitmap> createdBits_;
  std::vector<Bitmap> deliveredBits_;
  stats::QuantileSketch latencySketch_;
  stats::Moments latencyMoments_;
  trace::Recorder* trace_ = nullptr;  // owned by the experiment layer
  std::uint64_t createdCount_ = 0;
  std::uint64_t deliveredCount_ = 0;
  double latencySum_ = 0.0;
  double hopsSum_ = 0.0;
  std::uint64_t duplicateDeliveries_ = 0;
};

}  // namespace glr::dtn
