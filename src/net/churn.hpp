#pragma once
/// \file churn.hpp
/// Node churn: duty-cycled radio join/leave driven by kernel events.
///
/// A configurable fraction of nodes alternates exponentially distributed
/// ON/OFF radio periods. Toggles are ordinary simulator events: each one
/// flips the node's MAC radio gate (World::setRadioUp — sends drop,
/// receptions stop, queues flush) and notifies the routing agent so it can
/// cold-start its neighbor state. Every draw comes from per-node forks of
/// one dedicated RNG stream, so enabling churn never perturbs placement,
/// mobility, traffic, MAC or agent randomness, and runs stay bit-identical
/// across thread counts under the parallel sweep engine.

#include <cstdint>
#include <vector>

#include "net/world.hpp"
#include "sim/rng.hpp"

namespace glr::net {

/// ChurnProcess::Params, K(type, name, default) each, in declaration order
/// (the scenario config digest walks this list).
#define GLR_CHURN_PARAMS(K)                                                  \
  K(double, fraction, 0.5)  /* fraction of nodes that duty-cycle, (0, 1] */ \
  K(double, upMean, 120.0)  /* mean ON duration (s), exponential */         \
  K(double, downMean, 30.0) /* mean OFF duration (s), exponential */        \
  K(double, start, 0.0)     /* no toggle before this time */

class ChurnProcess : public sim::EventSink {
 public:
  struct Params {
#define GLR_FIELD(type, name, def) type name = def;
    GLR_CHURN_PARAMS(GLR_FIELD)
#undef GLR_FIELD
  };

  /// Selects round(fraction * numNodes) churning nodes (at least one),
  /// spread uniformly across the id space so churn hits traffic endpoints
  /// and relays alike. Must outlive the simulation run (it is the sink of
  /// its scheduled toggle events).
  ChurnProcess(World& world, Params params, sim::Rng rng);

  /// Schedules every churning node's first OFF transition.
  void start();

  [[nodiscard]] std::size_t churningNodes() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t toggles() const { return toggles_; }

  /// Checkpoint support: per-node up/rng state and the toggle counter.
  /// The churning-node id set is construction-derived (verified on restore).
  template <class Ar>
  void visit(Ar& ar);

  /// Fires a toggle event (kChurnToggle, u0: churning-node index; see
  /// checkpoint/event_kinds.hpp).
  void onEvent(const sim::EventDesc& desc) override { toggle(desc.u0); }

 private:
  struct NodeState {
    int id = -1;
    bool up = true;
    sim::Rng rng;
  };

  void scheduleNext(std::size_t idx);
  void toggle(std::size_t idx);

  World& world_;
  Params params_;
  std::vector<NodeState> nodes_;
  std::uint64_t toggles_ = 0;
};

}  // namespace glr::net
