#pragma once
/// \file faults.hpp
/// Seeded fault injection: link-loss bursts, frame corruption, stuck nodes,
/// and per-node misbehavior models (the adversary layer).
///
/// The benign mechanisms are orthogonal, each driven by its own fork of one
/// dedicated RNG stream so enabling a fault never perturbs any other
/// subsystem's draws (and runs stay bit-identical across sweep threads):
///
///  * **Link-loss bursts** — burst windows arrive as a Poisson process with
///    exponential durations; while at least one window is open, every frame
///    delivery independently fails with `lossProb`. Models interference
///    episodes that blanket the medium.
///  * **Frame corruption** — always-on per-delivery corruption with
///    `corruptProb` (a corrupted frame fails its checksum and is discarded
///    by the receiver, indistinguishable from loss at this abstraction).
///  * **Stuck-node stalls** — stall events arrive as a Poisson process; each
///    picks a uniform victim and forces its radio down (World::setRadioUp,
///    the same well-tested gate churn uses: queue flushed, unicasts fail,
///    receptions stop) for an exponential duration. Models firmware hangs
///    and crash-recovery cycles. Composes with ChurnProcess: both drive the
///    same idempotent gate, so overlapping toggles are safe, though a node
///    both churned-down and stalled comes back up when either process says
///    so.
///
/// Loss and corruption hook the channel's per-receiver delivery filter
/// (mac::Channel::setDeliveryFilter): the frame stays on air — it still
/// occupies the medium and interferes — only its delivery to a specific
/// receiver is suppressed, counted in ChannelStats::faultDrops.
///
/// The **adversary layer** (AdversaryModel) is different in kind: instead of
/// damaging the medium it makes a seeded fraction of nodes execute the
/// routing protocol unfaithfully. Behaviors:
///
///  * **Blackhole** — accepts relayed copies (the frame is received and the
///    protocol handler runs) then silently destroys them WITHOUT sending a
///    custody acknowledgement. The silence is the detectable signature: an
///    honest custodian's cache timeout fires, the copy returns to its Store,
///    and repeated timeouts toward the same hop feed GLR's suspicion scoring.
///  * **Greyhole** — like a blackhole but drops each relayed copy only with
///    probability `greyholeDropProb`, so it acks often enough to evade naive
///    detection.
///  * **Selfish** — refuses to relay at all, but politely: under GLR it
///    answers custody transfers with a refusal NACK (the sender keeps the
///    copy and backs off), under the replication baselines it simply never
///    stores relayed copies. Selfish nodes still originate and receive
///    their own traffic.
///  * **Flapping responder** — protocol-honest but duty-cycles its radio on
///    fast exponential up/down phases (through the same World::setRadioUp
///    gate churn uses), so it keeps appearing as a usable next hop and then
///    vanishing mid-custody.
///
/// Misbehavior is strictly a *relay* property: every adversarial node still
/// originates its own traffic and accepts final delivery of messages
/// addressed to it. Every adversarial action is counted
/// (AdversaryModel::Counters -> ScenarioResult) so no loss is ever silent at
/// the accounting level, and all behaviors default off: the draw sequence of
/// a run without adversaries is untouched and every pinned golden stays
/// bit-identical.

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/frame.hpp"
#include "net/world.hpp"
#include "sim/rng.hpp"

namespace glr::net {

/// AdversaryModel::Params, K(type, name, default) each, in declaration
/// order (the scenario config digest walks this list).
#define GLR_ADVERSARY_PARAMS(K)                                               \
  K(double, blackholeFraction, 0.0)                                           \
  K(double, greyholeFraction, 0.0)                                            \
  K(double, greyholeDropProb, 0.5) /* per-relayed-copy drop probability */    \
  K(double, selfishFraction, 0.0)                                             \
  K(double, flappingFraction, 0.0)                                            \
  K(double, flapUpMean, 20.0) /* mean radio-up phase, s (exponential) */      \
  K(double, flapDownMean, 5.0) /* mean radio-down phase, seconds */

/// Per-node misbehavior assignment and relay-time decisions. Owned by
/// FaultProcess; routing agents reach it through World::adversary() at the
/// single point where a relayed copy is accepted, so every protocol faces
/// the identical adversary.
class AdversaryModel {
 public:
  enum class Behavior : std::uint8_t {
    kHonest = 0,
    kBlackhole,
    kGreyhole,
    kSelfish,
    kFlapping,
  };

  /// What a node does with a copy it is asked to relay.
  enum class RelayDecision : std::uint8_t {
    kAccept,  // honest relay
    kDrop,    // silently destroy, no acknowledgement (blackhole/greyhole)
    kRefuse,  // decline politely (selfish: NACK under GLR, no-store otherwise)
  };

  struct Params {
#define GLR_FIELD(type, name, def) type name = def;
    GLR_ADVERSARY_PARAMS(GLR_FIELD)
#undef GLR_FIELD

    /// True when any behavior is enabled (drives whether the model is built
    /// and the assignment stream is ever forked — the zero-when-off gate).
    [[nodiscard]] bool any() const {
      return blackholeFraction > 0.0 || greyholeFraction > 0.0 ||
             selfishFraction > 0.0 || flappingFraction > 0.0;
    }
  };

  struct Counters {
    std::uint64_t blackholeDrops = 0;   // copies silently destroyed
    std::uint64_t greyholeDrops = 0;    // probabilistic silent drops
    std::uint64_t selfishRefusals = 0;  // relays declined by selfish nodes
    std::uint64_t flapTransitions = 0;  // flapping radio toggles
  };

  /// Validates params (throws std::invalid_argument: fractions/probability
  /// out of [0,1], fraction sum > 1, non-positive flap means with flapping
  /// on) and assigns behaviors: node ids are Fisher-Yates-shuffled on a
  /// dedicated fork of `rng` and the first round(fraction*n) of each kind
  /// take that behavior, so assignment is a pure function of (n, params,
  /// stream) and independent of the per-relay draw sequence.
  AdversaryModel(std::size_t numNodes, Params params, sim::Rng rng);

  [[nodiscard]] Behavior behaviorOf(int node) const {
    return behaviors_[static_cast<std::size_t>(node)];
  }

  /// Decision for a relayed copy arriving at `node` (destination != node;
  /// callers must not consult the model for final delivery or originated
  /// traffic). Greyhole nodes draw from the adversary's own stream; all
  /// other behaviors are deterministic, so a run's draw sequence depends
  /// only on the order of relay receptions (itself deterministic). Every
  /// non-accept outcome is counted here — callers drop/refuse without
  /// further bookkeeping.
  [[nodiscard]] RelayDecision onRelayData(int node);

  /// Bookkeeping hook for the flapping scheduler (lives in FaultProcess).
  void noteFlapTransition() { ++counters_.flapTransitions; }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<int>& flappingNodes() const {
    return flappingNodes_;
  }

  /// Checkpoint support: greyhole draw stream and counters. Behavior
  /// assignment is a pure function of (numNodes, params, stream) and is
  /// reconstructed; restore verifies the flapping-node set matches.
  template <class Ar>
  void visit(Ar& ar);

 private:
  Params params_;
  sim::Rng greyRng_;  // per-relayed-copy greyhole drop draws
  std::vector<Behavior> behaviors_;
  std::vector<int> flappingNodes_;  // ascending ids (flap scheduling order)
  Counters counters_;
};

/// FaultProcess::Params, K(type, name, default) each, in declaration order
/// (the scenario config digest walks this list).
#define GLR_FAULT_PARAMS(K)                                                   \
  K(double, start, 0.0) /* no fault before this time */                       \
  /* Link-loss bursts (0 burstRate disables). */                              \
  K(double, burstRate, 0.0) /* bursts per second (Poisson arrivals) */        \
  K(double, burstMean, 2.0) /* mean burst duration, s (exponential) */        \
  K(double, lossProb, 0.5)  /* per-frame-per-receiver drop prob in a burst */ \
  /* Frame corruption (0 disables). */                                        \
  K(double, corruptProb, 0.0) /* per-frame-per-receiver corruption prob */    \
  /* Stuck-node stalls (0 stallRate disables). */                             \
  K(double, stallRate, 0.0) /* stalls per second (Poisson arrivals) */        \
  K(double, stallMean, 5.0) /* mean stall duration, s (exponential) */        \
  /* Misbehaving-node models (all fractions 0 disables; see            */    \
  /* AdversaryModel). Flapping phases start at `start` like every other */    \
  /* fault mechanism.                                                   */    \
  K(AdversaryModel::Params, adversary, {})

class FaultProcess : public sim::EventSink {
 public:
  struct Params {
#define GLR_FIELD(type, name, def) type name = def;
    GLR_FAULT_PARAMS(GLR_FIELD)
#undef GLR_FIELD
  };

  struct Counters {
    std::uint64_t burstsStarted = 0;
    std::uint64_t framesLost = 0;       // burst-loss delivery drops
    std::uint64_t framesCorrupted = 0;  // corruption delivery drops
    std::uint64_t stallsStarted = 0;
  };

  /// Validates params (throws std::invalid_argument on out-of-range
  /// values). Must outlive the run: it is the sink of its scheduled fault
  /// events, and the installed delivery filter and the World's adversary
  /// pointer refer to it.
  FaultProcess(World& world, Params params, sim::Rng rng);

  /// Installs the delivery filter (only when loss/corruption is active),
  /// publishes the adversary model on the World and schedules the first
  /// burst/stall arrivals and flapping phases.
  void start();

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] bool burstActive() const { return burstsActive_ > 0; }
  /// The adversary model, when any misbehavior fraction is set.
  [[nodiscard]] const AdversaryModel* adversary() const {
    return adversary_.has_value() ? &*adversary_ : nullptr;
  }

  /// Checkpoint support: all four fault RNG streams, the open-burst count,
  /// the stall bitmap, the adversary model (when built) and the counters.
  template <class Ar>
  void visit(Ar& ar);

  /// Fires one fault event (kFaultBurstNext..kFaultFlap, see
  /// checkpoint/event_kinds.hpp).
  void onEvent(const sim::EventDesc& desc) override;

 private:
  /// Channel delivery filter: true = deliver. Draws in a fixed order
  /// (burst loss, then corruption) from the loss stream; the channel's
  /// delivery loop is deterministic, so the draw sequence is too.
  bool deliver(const mac::Frame& frame, int receiver);
  void scheduleBurst();
  void scheduleStall();
  /// Schedules the next flap toggle for `node`; `up` is the state the radio
  /// is about to LEAVE (an up phase ends with a down toggle).
  void scheduleFlap(int node, bool up);
  /// Event bodies, fired by onEvent.
  void burstArrive();
  void stallArrive();
  void stallEnd(int victim);
  void flapToggle(int node, bool up);

  World& world_;
  Params params_;
  sim::Rng lossRng_;   // per-delivery loss/corruption draws
  sim::Rng burstRng_;  // burst arrival/duration draws
  sim::Rng stallRng_;  // stall arrival/victim/duration draws
  sim::Rng flapRng_;   // flapping phase durations (fork 5; forked lazily)
  int burstsActive_ = 0;
  std::vector<char> stalled_;  // our own stalls (avoid double-stall races)
  std::optional<AdversaryModel> adversary_;  // built only when any() is set
  Counters counters_;
};

}  // namespace glr::net
