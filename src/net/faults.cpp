#include "net/faults.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"
#include "mac/channel.hpp"

namespace glr::net {

AdversaryModel::AdversaryModel(std::size_t numNodes, Params params,
                               sim::Rng rng)
    : params_(params), greyRng_(rng.fork(1)) {
  const auto checkFraction = [](double f, const char* name) {
    if (f < 0.0 || f > 1.0) {
      throw std::invalid_argument{std::string{"AdversaryModel: "} + name +
                                  " must be in [0,1]"};
    }
  };
  checkFraction(params.blackholeFraction, "blackholeFraction");
  checkFraction(params.greyholeFraction, "greyholeFraction");
  checkFraction(params.selfishFraction, "selfishFraction");
  checkFraction(params.flappingFraction, "flappingFraction");
  checkFraction(params.greyholeDropProb, "greyholeDropProb");
  if (params.flappingFraction > 0.0 &&
      (!(params.flapUpMean > 0.0) || !(params.flapDownMean > 0.0))) {
    throw std::invalid_argument{
        "AdversaryModel: flap phase means must be > 0"};
  }
  if (numNodes == 0) {
    throw std::invalid_argument{"AdversaryModel: empty world"};
  }

  const auto count = [numNodes](double f) {
    return static_cast<std::size_t>(
        std::llround(f * static_cast<double>(numNodes)));
  };
  const std::size_t nBlack = count(params.blackholeFraction);
  const std::size_t nGrey = count(params.greyholeFraction);
  const std::size_t nSelfish = count(params.selfishFraction);
  const std::size_t nFlap = count(params.flappingFraction);
  if (nBlack + nGrey + nSelfish + nFlap > numNodes) {
    throw std::invalid_argument{
        "AdversaryModel: behavior fractions sum past the population"};
  }

  // Seeded assignment: shuffle ids on a dedicated fork (independent of the
  // greyhole draw stream), then carve consecutive runs per behavior.
  behaviors_.assign(numNodes, Behavior::kHonest);
  std::vector<int> ids(numNodes);
  std::iota(ids.begin(), ids.end(), 0);
  sim::Rng assignRng = rng.fork(2);
  for (std::size_t i = numNodes - 1; i > 0; --i) {
    const std::size_t j = assignRng.below(i + 1);
    std::swap(ids[i], ids[j]);
  }
  std::size_t at = 0;
  const auto take = [&](std::size_t n, Behavior b) {
    for (std::size_t k = 0; k < n; ++k) {
      behaviors_[static_cast<std::size_t>(ids[at])] = b;
      if (b == Behavior::kFlapping) flappingNodes_.push_back(ids[at]);
      ++at;
    }
  };
  take(nBlack, Behavior::kBlackhole);
  take(nGrey, Behavior::kGreyhole);
  take(nSelfish, Behavior::kSelfish);
  take(nFlap, Behavior::kFlapping);
  // Ascending ids give the flap scheduler a stable, id-ordered draw
  // sequence regardless of the shuffle.
  std::sort(flappingNodes_.begin(), flappingNodes_.end());
}

AdversaryModel::RelayDecision AdversaryModel::onRelayData(int node) {
  switch (behaviorOf(node)) {
    case Behavior::kHonest:
    case Behavior::kFlapping:
      return RelayDecision::kAccept;
    case Behavior::kBlackhole:
      ++counters_.blackholeDrops;
      return RelayDecision::kDrop;
    case Behavior::kGreyhole:
      if (greyRng_.bernoulli(params_.greyholeDropProb)) {
        ++counters_.greyholeDrops;
        return RelayDecision::kDrop;
      }
      return RelayDecision::kAccept;
    case Behavior::kSelfish:
      ++counters_.selfishRefusals;
      return RelayDecision::kRefuse;
  }
  return RelayDecision::kAccept;
}

FaultProcess::FaultProcess(World& world, Params params, sim::Rng rng)
    : world_(world),
      params_(params),
      lossRng_(rng.fork(1)),
      burstRng_(rng.fork(2)),
      stallRng_(rng.fork(3)) {
  if (params.start < 0.0) {
    throw std::invalid_argument{"FaultProcess: negative start"};
  }
  if (params.burstRate < 0.0 || params.stallRate < 0.0) {
    throw std::invalid_argument{"FaultProcess: negative rate"};
  }
  if (params.burstRate > 0.0 && !(params.burstMean > 0.0)) {
    throw std::invalid_argument{"FaultProcess: burstMean must be > 0"};
  }
  if (params.stallRate > 0.0 && !(params.stallMean > 0.0)) {
    throw std::invalid_argument{"FaultProcess: stallMean must be > 0"};
  }
  if (params.lossProb < 0.0 || params.lossProb > 1.0 ||
      params.corruptProb < 0.0 || params.corruptProb > 1.0) {
    throw std::invalid_argument{"FaultProcess: probabilities must be in [0,1]"};
  }
  if (world.numNodes() == 0) {
    throw std::invalid_argument{"FaultProcess: empty world"};
  }
  stalled_.assign(world.numNodes(), 0);
  // The adversary streams (assignment, greyhole draws, flap phases) are
  // forked only when some behavior is enabled, so an all-honest run's draw
  // sequence is byte-identical to one with no adversary support at all.
  if (params.adversary.any()) {
    adversary_.emplace(world.numNodes(), params.adversary, rng.fork(4));
    flapRng_ = rng.fork(5);
  }
}

void FaultProcess::start() {
  if (params_.burstRate > 0.0 || params_.corruptProb > 0.0) {
    world_.channel().setDeliveryFilter(
        [this](const mac::Frame& frame, int receiver) {
          return deliver(frame, receiver);
        });
  }
  if (params_.burstRate > 0.0) scheduleBurst();
  if (params_.stallRate > 0.0) scheduleStall();
  if (adversary_.has_value()) {
    world_.setAdversary(&*adversary_);
    // Flapping responders start up (like every node) and end their first up
    // phase after start + exp(flapUpMean), in ascending node-id order.
    for (const int node : adversary_->flappingNodes()) {
      scheduleFlap(node, /*up=*/true);
    }
  }
}

bool FaultProcess::deliver(const mac::Frame& /*frame*/, int /*receiver*/) {
  if (burstsActive_ > 0 && params_.lossProb > 0.0 &&
      lossRng_.bernoulli(params_.lossProb)) {
    ++counters_.framesLost;
    return false;
  }
  if (params_.corruptProb > 0.0 && lossRng_.bernoulli(params_.corruptProb)) {
    ++counters_.framesCorrupted;
    return false;
  }
  return true;
}

void FaultProcess::scheduleBurst() {
  sim::Simulator& sim = world_.sim();
  const sim::SimTime at = std::max(params_.start, sim.now()) +
                          burstRng_.exponential(1.0 / params_.burstRate);
  sim.scheduleAt(at, *this, {.kind = ckpt::kFaultBurstNext});
}

void FaultProcess::burstArrive() {
  ++counters_.burstsStarted;
  ++burstsActive_;  // bursts can overlap; loss applies while any is open
  const double duration = burstRng_.exponential(params_.burstMean);
  world_.sim().schedule(duration, *this, {.kind = ckpt::kFaultBurstEnd});
  scheduleBurst();
}

void FaultProcess::scheduleStall() {
  sim::Simulator& sim = world_.sim();
  const sim::SimTime at = std::max(params_.start, sim.now()) +
                          stallRng_.exponential(1.0 / params_.stallRate);
  sim.scheduleAt(at, *this, {.kind = ckpt::kFaultStallNext});
}

void FaultProcess::stallArrive() {
  // Draw victim and duration unconditionally (the draw sequence must not
  // depend on which nodes happen to be stalled); skip only the toggle.
  const auto victim = static_cast<int>(stallRng_.below(world_.numNodes()));
  const double duration = stallRng_.exponential(params_.stallMean);
  if (!stalled_[static_cast<std::size_t>(victim)]) {
    stalled_[static_cast<std::size_t>(victim)] = 1;
    ++counters_.stallsStarted;
    world_.setRadioUp(victim, false);
    world_.sim().schedule(duration, *this,
                          {.kind = ckpt::kFaultStallEnd, .i0 = victim});
  }
  scheduleStall();
}

void FaultProcess::stallEnd(int victim) {
  stalled_[static_cast<std::size_t>(victim)] = 0;
  world_.setRadioUp(victim, true);
}

void FaultProcess::scheduleFlap(int node, bool up) {
  // Each toggle event draws exactly one phase duration at fire time, so the
  // flap stream's draw sequence is fixed by the (deterministic) event
  // order. Flapping shares World::setRadioUp with churn/stalls; composition
  // is the same last-writer-wins caveat those layers already document.
  sim::Simulator& sim = world_.sim();
  const double mean =
      up ? params_.adversary.flapUpMean : params_.adversary.flapDownMean;
  const sim::SimTime at =
      std::max(params_.start, sim.now()) + flapRng_.exponential(mean);
  sim.scheduleAt(at, *this,
                 {.kind = ckpt::kFaultFlap,
                  .b0 = static_cast<std::uint8_t>(up),
                  .i0 = node});
}

void FaultProcess::flapToggle(int node, bool up) {
  adversary_->noteFlapTransition();
  world_.setRadioUp(node, !up);
  scheduleFlap(node, !up);
}

template <class Ar>
void AdversaryModel::visit(Ar& ar) {
  ar.rng(greyRng_);
  ar.expectEqual(flappingNodes_.size(), "flapping node count");
  for (const int node : flappingNodes_) {
    ar.expectEqual(node, "flapping node id");
  }
  ar.u64(counters_.blackholeDrops);
  ar.u64(counters_.greyholeDrops);
  ar.u64(counters_.selfishRefusals);
  ar.u64(counters_.flapTransitions);
}

template <class Ar>
void FaultProcess::visit(Ar& ar) {
  ar.rng(lossRng_);
  ar.rng(burstRng_);
  ar.rng(stallRng_);
  ar.rng(flapRng_);
  ar.i32(burstsActive_);
  ar.expectEqual(stalled_.size(), "stall bitmap size");
  for (char& s : stalled_) {
    bool stalled = s != 0;
    ar.boolean(stalled);
    if constexpr (Ar::kLoading) s = stalled ? 1 : 0;
  }
  ar.expectEqual(adversary_.has_value(), "adversary model presence");
  if (adversary_.has_value()) adversary_->visit(ar);
  ar.u64(counters_.burstsStarted);
  ar.u64(counters_.framesLost);
  ar.u64(counters_.framesCorrupted);
  ar.u64(counters_.stallsStarted);
}

template void AdversaryModel::visit(ckpt::Encoder&);
template void AdversaryModel::visit(ckpt::Decoder&);
template void FaultProcess::visit(ckpt::Encoder&);
template void FaultProcess::visit(ckpt::Decoder&);

void FaultProcess::onEvent(const sim::EventDesc& desc) {
  switch (desc.kind) {
    case ckpt::kFaultBurstNext:
      burstArrive();
      return;
    case ckpt::kFaultBurstEnd:
      --burstsActive_;
      return;
    case ckpt::kFaultStallNext:
      stallArrive();
      return;
    case ckpt::kFaultStallEnd:
      stallEnd(desc.i0);
      return;
    case ckpt::kFaultFlap:
      flapToggle(desc.i0, desc.b0 != 0);
      return;
    default:
      throw std::logic_error{"FaultProcess: not a fault event kind"};
  }
}

}  // namespace glr::net
