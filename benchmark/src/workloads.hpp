#pragma once
/// \file workloads.hpp
/// The benchmark's four workloads and the unit of work each repeats.
///
/// A run of a workload is a closed loop: one unit at a time, each unit one
/// call into a public entry point (experiment::runScenario, or
/// SweepRunner::run for the sweep). Input i of a run with seed N uses base
/// seed seedForRun(N, i * replicates), so every input differs and the same
/// seed always gives the same inputs. Per-seed topology luck moves a
/// 50-node scenario's cost by ~16%, so a run averages several inputs; host
/// contention moves any unit by 10-40% for seconds at a time, so each input
/// runs in several passes and keeps its best wall.

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"

namespace glrbench {

using glr::experiment::ScenarioConfig;

/// The run seed when --seed is not given.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct Scale {
  /// Seeds per grid config in one unit (SweepRunner replicates; 1 for the
  /// single-scenario workloads).
  int replicates = 1;
  /// Events the reference cell must execute (0: no pin).
  std::uint64_t pinnedEvents = 0;
};

struct Workload {
  const char* name;
  const char* why;
  /// The grid of one unit on base seed `seed`: one config, or the sweep's
  /// protocol grid.
  std::vector<ScenarioConfig> (*grid)(std::uint64_t seed, bool quick);
  /// True: a unit is SweepRunner::run(grid, replicates) on several threads.
  bool sweep = false;
  /// Wall seconds of one full-size unit on the calibration host (README);
  /// sets how many inputs fill --seconds, so inputs never depend on timing.
  double unitSeconds = 1.0;
  /// Set-ups timed per run; setup_s is their median.
  int setupReps = 100;
  /// Seed of the pinned reference cell (the grid's first config).
  std::uint64_t referenceSeed = kDefaultSeed;
  Scale full;
  Scale quick;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* findWorkload(const std::string& name);

/// Base seed of unit `i` in a run with seed `seed`.
[[nodiscard]] std::uint64_t unitSeed(std::uint64_t seed, int i,
                                     int replicates);

/// SweepRunner::run's cell enumeration: grid-major, replicates minor, each
/// seed replaced by seedForRun(base, r).
[[nodiscard]] std::vector<ScenarioConfig> expandCells(
    const std::vector<ScenarioConfig>& grid, int replicates);

/// The config's set-up alone: construction plus the t=0 burst. Stochastic
/// traffic switches to the "paper" schedule with no messages, because an
/// empty arrival window is rejected.
[[nodiscard]] ScenarioConfig setupConfig(ScenarioConfig cfg);

}  // namespace glrbench
