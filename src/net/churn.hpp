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

class ChurnProcess {
 public:
  struct Params {
    double fraction = 0.5;   // fraction of nodes that duty-cycle, (0, 1]
    double upMean = 120.0;   // mean ON duration (s), exponential
    double downMean = 30.0;  // mean OFF duration (s), exponential
    double start = 0.0;      // no toggle before this time
  };

  /// Selects round(fraction * numNodes) churning nodes (at least one),
  /// spread uniformly across the id space so churn hits traffic endpoints
  /// and relays alike. Must outlive the simulation run (it owns the state
  /// the scheduled toggle events close over).
  ChurnProcess(World& world, Params params, sim::Rng rng);

  ChurnProcess(const ChurnProcess&) = delete;
  ChurnProcess& operator=(const ChurnProcess&) = delete;

  /// Schedules every churning node's first OFF transition.
  void start();

  [[nodiscard]] std::size_t churningNodes() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t toggles() const { return toggles_; }

  /// Checkpoint support: per-node up/rng state and the toggle counter.
  /// The churning-node id set is construction-derived (verified on restore).
  template <class Ar>
  void visit(Ar& ar);

  /// Re-creates a pending toggle event under its original key (restore
  /// path; see checkpoint/event_kinds.hpp kChurnToggle, u0 = node index).
  void restoreToggleEvent(const sim::EventKey& key, std::size_t idx);

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
