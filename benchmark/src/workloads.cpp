#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "experiment/runner.hpp"

namespace glrbench {
namespace {

using glr::experiment::KernelQueue;
using glr::experiment::Protocol;
using glr::experiment::SpatialIndexMode;

// Paper Table 1 GLR (heap4 kernel, snapshot receiver index): the scenario
// the KernelRegression golden pins as glr-50n-400s-200msg-seed7.
std::vector<ScenarioConfig> goldenGrid(std::uint64_t seed, bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.simTime = quick ? 120.0 : 400.0;
  cfg.numMessages = quick ? 60 : 200;
  cfg.seed = seed;
  return {cfg};
}

// bench_hotpath's saturated cell: Poisson load past the knee with finite
// storage, custody watermark and the AIMD custody window all engaged.
std::vector<ScenarioConfig> saturatedGrid(std::uint64_t seed, bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.traffic.model = "poisson";
  cfg.congestionControl = true;
  if (quick) {
    cfg.numNodes = 16;
    cfg.trafficNodes = 14;
    cfg.radius = 150.0;
    cfg.simTime = 90.0;
    cfg.storageLimit = 16;
    cfg.traffic.rate = 30.0;
  } else {
    cfg.radius = 100.0;
    cfg.simTime = 300.0;
    cfg.storageLimit = 40;
    cfg.traffic.rate = 50.0;
  }
  cfg.custodyWatermark = cfg.storageLimit / 2;
  cfg.seed = seed;
  return {cfg};
}

// bench_scale's constant-density city cell (calendar queue, tiled receiver
// index, table eviction) at a population whose unit fits a run: 20k nodes
// (10k quick) for 10 sim-s. The area grows with the population so every
// node sees the paper's local density; 45 traffic nodes keep almost every
// node an idle relay. Traffic starts at 10 s, so the horizon is 10 s at
// either size: the first message is then created by the time of the trace
// run's last checkpoint, whose restore is checked.
std::vector<ScenarioConfig> cityGrid(std::uint64_t seed, bool quick) {
  const int nodes = quick ? 10000 : 20000;
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  const double lin = std::sqrt(static_cast<double>(nodes) / cfg.numNodes);
  cfg.areaWidth *= lin;
  cfg.areaHeight *= lin;
  cfg.numNodes = nodes;
  cfg.trafficNodes = 45;
  cfg.simTime = 10.0;
  cfg.numMessages = 60;
  cfg.kernelQueue = KernelQueue::kCalendar;
  cfg.spatialIndex = SpatialIndexMode::kTiled;
  cfg.neighborEvictAfterFactor = 2.0;
  cfg.locationEvictAfter = 15.0;
  cfg.seed = seed;
  return {cfg};
}

// The experiment engine's protocol comparison: GLR with and without
// custody against the two replication baselines.
std::vector<ScenarioConfig> sweepGrid(std::uint64_t seed, bool quick) {
  ScenarioConfig base;
  base.simTime = quick ? 300.0 : 400.0;
  base.numMessages = quick ? 60 : 150;
  base.seed = seed;
  std::vector<ScenarioConfig> grid(4, base);
  grid[0].protocol = Protocol::kGlr;
  grid[1].protocol = Protocol::kGlr;
  grid[1].custody = false;
  grid[2].protocol = Protocol::kEpidemic;
  grid[3].protocol = Protocol::kSprayAndWait;
  return grid;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"golden",
       "Paper-scale GLR: spanner and Delaunay geometry, the heap kernel and "
       "the MAC do most of the work.",
       goldenGrid, false, 0.85, 100, kDefaultSeed,
       {1, 2385279},
       {1, 512381}},
      {"saturated",
       "GLR past the saturation knee: evictions, custody refusals and "
       "backoff requeues load the dtn and custody paths; spanner load is "
       "heavier than golden.",
       saturatedGrid, false, 1.64, 100, 1,
       {1, 2840649},
       {1, 248891}},
      {"city",
       "Population scale: kernel, MAC/channel, neighbor tables and idle GLR "
       "upkeep dominate, Delaunay is ~0 (the spanner bypass), and set-up "
       "carries the calendar queue's t=0 burst.",
       cityGrid, false, 2.73, 8, kDefaultSeed,
       {1, 1585548},
       {1, 792973}},
      {"sweep",
       "SweepRunner over GLR custody/no-custody, Epidemic and Spray-and-Wait "
       "x 8 seeds on min(4, nproc) threads: the engine's parallel "
       "throughput; the replication cells bypass the spanner.",
       sweepGrid, true, 3.0, 100, kDefaultSeed,
       {8, 0},
       {2, 0}},
  };
  return kWorkloads;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t unitSeed(std::uint64_t seed, int i, int replicates) {
  return glr::experiment::seedForRun(seed, i * replicates);
}

std::vector<ScenarioConfig> expandCells(const std::vector<ScenarioConfig>& grid,
                                        int replicates) {
  std::vector<ScenarioConfig> cells;
  cells.reserve(grid.size() * static_cast<std::size_t>(replicates));
  for (const ScenarioConfig& cfg : grid) {
    for (int r = 0; r < replicates; ++r) {
      cells.push_back(cfg);
      cells.back().seed = glr::experiment::seedForRun(cfg.seed, r);
    }
  }
  return cells;
}

ScenarioConfig setupConfig(ScenarioConfig cfg) {
  cfg.simTime = 0.0;
  if (cfg.traffic.model != "paper") {
    cfg.traffic.model = "paper";
    cfg.numMessages = 0;
  }
  return cfg;
}

}  // namespace glrbench
