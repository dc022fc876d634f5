#include "experiment/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"

namespace glr::experiment {

void schedulePaperWorkload(sim::Simulator& sim,
                           const std::vector<routing::DtnAgent*>& agents,
                           int trafficNodes, int numMessages,
                           double trafficStart, double messageInterval,
                           sim::Rng trafficRng) {
  if (trafficNodes < 2) {
    throw std::invalid_argument{"schedulePaperWorkload: trafficNodes < 2"};
  }
  constexpr std::uint64_t kPairEnumerationCap = 1u << 20;
  const auto traffic = static_cast<std::uint64_t>(trafficNodes);
  const auto scheduleMessage = [&](int k, int src, int dst) {
    sim.schedule(trafficStart + k * messageInterval,
                 *agents[static_cast<std::size_t>(src)],
                 {.kind = ckpt::kTrafficPaperArrival, .i0 = src, .i1 = dst});
  };
  if (traffic * (traffic - 1) <= kPairEnumerationCap) {
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(traffic * (traffic - 1));
    for (int i = 0; i < trafficNodes; ++i) {
      for (int j = 0; j < trafficNodes; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[trafficRng.below(i)]);
    }
    for (int k = 0; k < numMessages; ++k) {
      const auto [src, dst] =
          pairs[static_cast<std::size_t>(k) % pairs.size()];
      scheduleMessage(k, src, dst);
    }
  } else {
    for (int k = 0; k < numMessages; ++k) {
      const auto src = static_cast<int>(trafficRng.below(traffic));
      auto dst = static_cast<int>(trafficRng.below(traffic - 1));
      if (dst >= src) ++dst;
      scheduleMessage(k, src, dst);
    }
  }
}

TrafficProcess::TrafficProcess(sim::Simulator& sim,
                               std::vector<routing::DtnAgent*> agents,
                               Params params, sim::Rng rng)
    : sim_(sim),
      agents_(std::move(agents)),
      params_(std::move(params)),
      model_(Model::kPoisson),
      rng_(rng) {
  const TrafficSpec& spec = params_.spec;
  if (spec.model == "poisson") {
    model_ = Model::kPoisson;
  } else if (spec.model == "onoff") {
    model_ = Model::kOnOff;
  } else if (spec.model == "hotspot") {
    model_ = Model::kHotspot;
  } else if (spec.model == "flashcrowd") {
    model_ = Model::kFlashCrowd;
  } else {
    throw std::invalid_argument{"TrafficProcess: unknown model '" +
                                spec.model + "'"};
  }
  if (params_.trafficNodes < 2 ||
      static_cast<std::size_t>(params_.trafficNodes) > agents_.size()) {
    throw std::invalid_argument{"TrafficProcess: bad trafficNodes"};
  }
  if (!(spec.rate > 0.0)) {
    throw std::invalid_argument{"TrafficProcess: rate must be > 0"};
  }
  if (params_.horizon <= params_.start) {
    throw std::invalid_argument{"TrafficProcess: empty traffic window"};
  }

  maxRate_ = spec.rate;
  switch (model_) {
    case Model::kPoisson:
      break;
    case Model::kOnOff: {
      if (!(spec.onMean > 0.0) || !(spec.offMean > 0.0)) {
        throw std::invalid_argument{"TrafficProcess: on/off means must be > 0"};
      }
      sources_.resize(static_cast<std::size_t>(params_.trafficNodes));
      for (std::size_t s = 0; s < sources_.size(); ++s) {
        sources_[s].rng = rng_.fork(s + 1);
      }
      break;
    }
    case Model::kHotspot: {
      if (!(spec.hotspotFraction > 0.0) || spec.hotspotFraction > 1.0 ||
          spec.hotspotWeight < 0.0 || spec.hotspotWeight > 1.0) {
        throw std::invalid_argument{"TrafficProcess: bad hotspot knobs"};
      }
      hotCount_ = std::clamp<int>(
          static_cast<int>(
              std::llround(spec.hotspotFraction * params_.trafficNodes)),
          1, params_.trafficNodes);
      break;
    }
    case Model::kFlashCrowd: {
      if (!(spec.flashMultiplier >= 1.0) || spec.flashStart < 0.0 ||
          spec.flashDuration < 0.0 ||
          spec.flashStart + spec.flashDuration > 1.0) {
        throw std::invalid_argument{"TrafficProcess: bad flashcrowd knobs"};
      }
      const double window = params_.horizon - params_.start;
      flashFrom_ = params_.start + spec.flashStart * window;
      flashUntil_ = flashFrom_ + spec.flashDuration * window;
      maxRate_ = spec.rate * spec.flashMultiplier;
      break;
    }
  }
}

double TrafficProcess::rateAt(sim::SimTime t) const {
  if (model_ == Model::kFlashCrowd && t >= flashFrom_ && t < flashUntil_) {
    return params_.spec.rate * params_.spec.flashMultiplier;
  }
  return params_.spec.rate;
}

void TrafficProcess::start() {
  if (model_ == Model::kOnOff) {
    // Each source starts in its stationary phase (ON with probability
    // onMean / (onMean + offMean)) so the aggregate rate has no warm-up
    // transient, then alternates exponential phases from its own stream.
    const double duty =
        params_.spec.onMean / (params_.spec.onMean + params_.spec.offMean);
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      Source& src = sources_[s];
      src.on = src.rng.bernoulli(duty);
      togglePhase(s);  // schedules the first phase end
      if (src.on) scheduleSourceArrival(s);
    }
    return;
  }
  scheduleArrival();
}

// ------------------------------------------------- single-chain models ---

void TrafficProcess::scheduleArrival() {
  if (exhausted()) return;
  // Candidate arrivals at the envelope rate; flash-crowd thinning rejects
  // candidates outside the spike with probability 1 - rate(t)/maxRate
  // (Lewis-Shedler), which realises the exact inhomogeneous process without
  // cancelling or re-drawing pending events at the spike boundaries.
  const sim::SimTime at = std::max(params_.start, sim_.now()) +
                          rng_.exponential(1.0 / maxRate_);
  if (at >= params_.horizon) return;  // chain ends inside the horizon
  sim_.scheduleAt(at, *this, {.kind = ckpt::kTrafficArrival});
}

void TrafficProcess::arrival() {
  if (exhausted()) return;
  if (model_ == Model::kFlashCrowd) {
    const double accept = rateAt(sim_.now()) / maxRate_;
    if (accept < 1.0 && !rng_.bernoulli(accept)) {
      ++thinned_;
      scheduleArrival();
      return;
    }
  }
  originatePair(rng_, model_ == Model::kHotspot);
  scheduleArrival();
}

void TrafficProcess::originatePair(sim::Rng& rng, bool hot) {
  const auto traffic = static_cast<std::uint64_t>(params_.trafficNodes);
  int src;
  if (hot && rng.bernoulli(params_.spec.hotspotWeight)) {
    src = static_cast<int>(rng.below(static_cast<std::uint64_t>(hotCount_)));
  } else {
    src = static_cast<int>(rng.below(traffic));
  }
  auto dst = static_cast<int>(rng.below(traffic - 1));
  if (dst >= src) ++dst;
  ++generated_;
  agents_[static_cast<std::size_t>(src)]->originate(dst);
}

// ----------------------------------------------------------- ON/OFF -----

void TrafficProcess::togglePhase(std::size_t s) {
  Source& src = sources_[s];
  const double mean = src.on ? params_.spec.onMean : params_.spec.offMean;
  const sim::SimTime at =
      std::max(params_.start, sim_.now()) + src.rng.exponential(mean);
  if (at >= params_.horizon) return;
  sim_.scheduleAt(at, *this, {.kind = ckpt::kTrafficSourceToggle, .u0 = s});
}

void TrafficProcess::phaseFlip(std::size_t s) {
  Source& source = sources_[s];
  source.on = !source.on;
  ++source.epoch;  // invalidate the previous phase's pending arrival
  togglePhase(s);
  if (source.on) scheduleSourceArrival(s);
}

void TrafficProcess::scheduleSourceArrival(std::size_t s) {
  if (exhausted()) return;
  Source& src = sources_[s];
  // Per-source ON rate such that the long-run aggregate over all sources
  // matches spec.rate: rate / (numSources * duty).
  const double duty =
      params_.spec.onMean / (params_.spec.onMean + params_.spec.offMean);
  const double onRate =
      params_.spec.rate /
      (static_cast<double>(sources_.size()) * duty);
  const sim::SimTime at = std::max(params_.start, sim_.now()) +
                          src.rng.exponential(1.0 / onRate);
  if (at >= params_.horizon) return;
  sim_.scheduleAt(
      at, *this,
      {.kind = ckpt::kTrafficSourceArrival, .u0 = s, .u1 = src.epoch});
}

void TrafficProcess::sourceArrival(std::size_t s, std::uint64_t epoch) {
  Source& src = sources_[s];
  if (epoch != src.epoch || !src.on || exhausted()) return;
  // The source id is the sender; the destination comes from its own stream.
  const auto traffic = static_cast<std::uint64_t>(params_.trafficNodes);
  auto dst = static_cast<int>(src.rng.below(traffic - 1));
  if (dst >= static_cast<int>(s)) ++dst;
  ++generated_;
  agents_[s]->originate(dst);
  scheduleSourceArrival(s);
}

// ------------------------------------------------------- checkpointing ---

template <class Ar>
void TrafficProcess::visit(Ar& ar) {
  ar.rng(rng_);
  ar.expectEqual(sources_.size(), "traffic source count");
  for (Source& src : sources_) {
    ar.boolean(src.on);
    ar.u64(src.epoch);
    ar.rng(src.rng);
  }
  ar.u64(generated_);
  ar.u64(thinned_);
}

template void TrafficProcess::visit(ckpt::Encoder&);
template void TrafficProcess::visit(ckpt::Decoder&);

void TrafficProcess::onEvent(const sim::EventDesc& desc) {
  switch (desc.kind) {
    case ckpt::kTrafficArrival:
      arrival();
      return;
    case ckpt::kTrafficSourceToggle:
      phaseFlip(desc.u0);
      return;
    case ckpt::kTrafficSourceArrival:
      sourceArrival(desc.u0, desc.u1);
      return;
    default:
      throw std::logic_error{"TrafficProcess: not a traffic event kind"};
  }
}

}  // namespace glr::experiment
