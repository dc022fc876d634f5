#include "net/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"

namespace glr::net {

ChurnProcess::ChurnProcess(World& world, Params params, sim::Rng rng)
    : world_(world), params_(params) {
  if (!(params.fraction > 0.0) || params.fraction > 1.0) {
    throw std::invalid_argument{"ChurnProcess: fraction must be in (0, 1]"};
  }
  if (!(params.upMean > 0.0) || !(params.downMean > 0.0)) {
    throw std::invalid_argument{"ChurnProcess: up/down means must be > 0"};
  }
  if (params.start < 0.0) {
    throw std::invalid_argument{"ChurnProcess: negative start"};
  }
  const auto n = static_cast<std::size_t>(world.numNodes());
  if (n == 0) throw std::invalid_argument{"ChurnProcess: empty world"};
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(params.fraction * n)), 1, n);
  nodes_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    NodeState state;
    // Stride mapping i -> i*n/k yields k distinct ids spread over [0, n).
    state.id = static_cast<int>(i * n / k);
    state.rng = rng.fork(i);
    nodes_.push_back(state);
  }
}

void ChurnProcess::start() {
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) scheduleNext(idx);
}

void ChurnProcess::scheduleNext(std::size_t idx) {
  NodeState& node = nodes_[idx];
  const double mean = node.up ? params_.upMean : params_.downMean;
  sim::Simulator& sim = world_.sim();
  const sim::SimTime at =
      std::max(params_.start, sim.now()) + node.rng.exponential(mean);
  sim.scheduleAt(at, *this, {.kind = ckpt::kChurnToggle, .u0 = idx});
}

template <class Ar>
void ChurnProcess::visit(Ar& ar) {
  ar.expectEqual(nodes_.size(), "churning node count");
  for (NodeState& node : nodes_) {
    ar.expectEqual(node.id, "churning node id");
    ar.boolean(node.up);
    ar.rng(node.rng);
  }
  ar.u64(toggles_);
}

template void ChurnProcess::visit(ckpt::Encoder&);
template void ChurnProcess::visit(ckpt::Decoder&);

void ChurnProcess::toggle(std::size_t idx) {
  NodeState& node = nodes_[idx];
  node.up = !node.up;
  ++toggles_;
  world_.setRadioUp(node.id, node.up);
  scheduleNext(idx);
}

}  // namespace glr::net
