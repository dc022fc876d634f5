#pragma once
/// \file traffic.hpp
/// Pluggable workload generation: who sends how many messages, when.
///
/// The paper's workload is a fixed schedule — every `messageInterval` one
/// message between a shuffled (src, dst) pair — which tops out at a few
/// hundred messages per run and never approaches saturation. This layer
/// keeps that schedule (model "paper", bit-identical to the historical
/// inline code) and adds stochastic arrival processes that can offer
/// millions of messages per run: homogeneous Poisson, bursty ON/OFF
/// sources, hotspot senders, and flash-crowd load spikes.
///
/// Every stochastic model is a self-rescheduling generator: at most one
/// pending kernel event per arrival chain, so a million-message run never
/// materialises its schedule up front. All draws come from a dedicated RNG
/// stream (per-source forks for ON/OFF), so switching traffic models never
/// perturbs placement, mobility, MAC or agent randomness, and runs stay
/// bit-identical across sweep thread counts.

#include <cstdint>
#include <string>
#include <vector>

#include "routing/dtn_agent.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace glr::experiment {

/// Arrival-process selection + knobs, embedded in ScenarioConfig, as
/// K(type, name, default) entries in declaration order (the scenario config
/// digest walks this list). The default ("paper") reproduces the legacy
/// fixed schedule bit-identically; every other field is read only by the
/// model that names it.
#define GLR_TRAFFIC_SPEC(K)                                                  \
  /* "paper" | "poisson" | "onoff" | "hotspot" | "flashcrowd".           */ \
  K(std::string, model, "paper")                                            \
  /* Aggregate offered load in messages/second (all models but "paper",  */ \
  /* which derives its load from numMessages / messageInterval). For     */ \
  /* "onoff" this is the long-run mean across sources; instantaneous     */ \
  /* load during ON periods is higher by (onMean + offMean) / onMean.    */ \
  K(double, rate, 4.0)                                                      \
  /* Hard cap on originations; 0 = bounded only by the horizon.          */ \
  K(std::uint64_t, maxMessages, 0)                                          \
  /* "onoff": each traffic node alternates exponential ON/OFF periods    */ \
  /* and generates only while ON.                                        */ \
  K(double, onMean, 10.0)  /* mean ON duration, seconds */                  \
  K(double, offMean, 30.0) /* mean OFF duration, seconds */                 \
  /* "hotspot": a small subset of senders carries most of the load.      */ \
  K(double, hotspotFraction, 0.1) /* share of traffic nodes that are hot */ \
  K(double, hotspotWeight, 0.9)   /* probability a message originates hot */ \
  /* "flashcrowd": a Poisson baseline with one load spike. Start and     */ \
  /* duration are fractions of the [trafficStart, horizon) window.       */ \
  K(double, flashStart, 0.4)                                                \
  K(double, flashDuration, 0.1)                                             \
  K(double, flashMultiplier, 8.0) /* rate multiplier inside the spike */

struct TrafficSpec {
#define GLR_FIELD(type, name, def) type name = def;
  GLR_TRAFFIC_SPEC(GLR_FIELD)
#undef GLR_FIELD
};

/// Schedules the paper's fixed workload: ordered (src, dst) pairs among the
/// traffic subset, shuffled, one message per interval, wrapping when more
/// messages than pairs are requested. Moved verbatim from runScenario — the
/// draw sequence on `trafficRng` is pinned by every golden, so this function
/// must not change what it draws. Enumerate-then-shuffle is O(T²) in the
/// traffic population; past the cap each pair is drawn directly (uniform
/// src, uniform dst != src — the same distribution when messages are few
/// relative to pairs) without materialising anything. Throws
/// std::invalid_argument when fewer than two traffic nodes leave no pair.
/// Each message is a kTrafficPaperArrival event on its source agent.
void schedulePaperWorkload(sim::Simulator& sim,
                           const std::vector<routing::DtnAgent*>& agents,
                           int trafficNodes, int numMessages,
                           double trafficStart, double messageInterval,
                           sim::Rng trafficRng);

/// Owns the generator events of one stochastic traffic model. Must outlive
/// the simulation run (it is the sink of its scheduled arrivals), like
/// net::ChurnProcess.
class TrafficProcess : public sim::EventSink {
 public:
  struct Params {
    TrafficSpec spec;
    double start = 10.0;    // no arrival before this time
    double horizon = 400.0; // no arrival at/after this time
    int trafficNodes = 45;  // senders/destinations are node ids [0, this)
  };

  /// Validates the spec (throws std::invalid_argument for an unknown model
  /// or out-of-range knobs). `agents` is indexed by node id.
  TrafficProcess(sim::Simulator& sim,
                 std::vector<routing::DtnAgent*> agents, Params params,
                 sim::Rng rng);

  /// Schedules the first arrival (or per-source phase events for "onoff").
  void start();

  /// Messages originated so far.
  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  /// Arrival candidates suppressed by flash-crowd thinning (diagnostic).
  [[nodiscard]] std::uint64_t thinned() const { return thinned_; }
  /// ON/OFF sources (one per traffic node; none for the other models).
  [[nodiscard]] std::size_t sourceCount() const { return sources_.size(); }

  /// Checkpoint support: generator RNG(s), per-source phase/epoch state and
  /// the generated/thinned counters. Construction-derived knobs (maxRate_,
  /// flash window, hotCount_) are re-derived from the config, not stored.
  template <class Ar>
  void visit(Ar& ar);
  /// Fires one generator event (kTrafficArrival, kTrafficSourceToggle or
  /// kTrafficSourceArrival, see checkpoint/event_kinds.hpp).
  void onEvent(const sim::EventDesc& desc) override;

 private:
  enum class Model { kPoisson, kOnOff, kHotspot, kFlashCrowd };

  /// One ON/OFF source: its own RNG stream plus an epoch that invalidates
  /// in-flight arrival events when the phase toggles.
  struct Source {
    bool on = false;
    std::uint64_t epoch = 0;
    sim::Rng rng;
  };

  void scheduleArrival();              // kPoisson / kHotspot / kFlashCrowd
  void arrival();
  void togglePhase(std::size_t s);     // kOnOff
  /// Phase-toggle event body (kTrafficSourceToggle).
  void phaseFlip(std::size_t s);
  void scheduleSourceArrival(std::size_t s);
  void sourceArrival(std::size_t s, std::uint64_t epoch);
  void originatePair(sim::Rng& rng, bool hot);
  [[nodiscard]] double rateAt(sim::SimTime t) const;
  [[nodiscard]] bool exhausted() const {
    return params_.spec.maxMessages != 0 &&
           generated_ >= params_.spec.maxMessages;
  }

  sim::Simulator& sim_;
  std::vector<routing::DtnAgent*> agents_;
  Params params_;
  Model model_;
  sim::Rng rng_;                 // single-chain models draw here, in order
  std::vector<Source> sources_;  // kOnOff: one per traffic node
  double maxRate_ = 0.0;         // thinning envelope (flash peak rate)
  double flashFrom_ = 0.0;       // absolute flash window
  double flashUntil_ = 0.0;
  int hotCount_ = 0;             // kHotspot: ids [0, hotCount_) are hot
  std::uint64_t generated_ = 0;
  std::uint64_t thinned_ = 0;
};

}  // namespace glr::experiment
