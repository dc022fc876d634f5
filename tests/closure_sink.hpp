#pragma once
/// \file closure_sink.hpp
/// Test-only event sink that runs closures, so kernel and scenario tests
/// can schedule ad-hoc behaviour: each scheduled closure is parked in a
/// table, its event's descriptor carries the table index (u0), and firing
/// runs and drops it. A closure of a cancelled event stays parked until
/// the sink dies.

#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace glr::test {

class ClosureSink final : public sim::EventSink {
 public:
  explicit ClosureSink(sim::Simulator& sim) : sim_(sim) {}

  /// Runs `fn` `delay` seconds from now.
  sim::EventHandle schedule(sim::SimTime delay, std::function<void()> fn) {
    const sim::EventHandle h = sim_.schedule(delay, *this, {.u0 = fns_.size()});
    fns_.push_back(std::move(fn));
    return h;
  }

  /// Runs `fn` at absolute time `t`.
  sim::EventHandle scheduleAt(sim::SimTime t, std::function<void()> fn) {
    const sim::EventHandle h = sim_.scheduleAt(t, *this, {.u0 = fns_.size()});
    fns_.push_back(std::move(fn));
    return h;
  }

  void onEvent(const sim::EventDesc& desc) override {
    // Moved out first: the closure may schedule more, growing the table.
    const std::function<void()> fn = std::move(fns_[desc.u0]);
    fn();
  }

 private:
  sim::Simulator& sim_;
  std::vector<std::function<void()>> fns_;
};

}  // namespace glr::test
