/// \file bench_scale.cpp
/// City-scale population sweep: how far the per-node-count scaling path
/// (tiled receiver index + calendar event queue + population pre-sizing)
/// carries the simulator on one machine.
///
/// Cells run at *constant density* (the area grows with the population, so
/// every node sees the paper's local picture) with a fixed small traffic
/// subset — the overwhelming majority of nodes are idle, so the recorded
/// resident bytes/node is effectively the idle-node footprint (see
/// kIdleBytesPerNodeCeiling). Per cell the JSON records events/sec, resident
/// bytes/node ((process peak RSS during the cell - RSS at cell start) /
/// nodes; cells run in ascending size so each cell owns the peak it sets)
/// and set-up seconds (the same config at simTime 0: construction plus the
/// t=0 start burst). The JSON is stamped with the host and build.
///
/// Before the sweep, an A/B matrix at the smallest size asserts that every
/// {heap4, calendar} x {snapshot, tiled} combination produces bit-identical
/// ScenarioResults — the scaling path is an optimisation, not a model
/// change — so the large cells can run calendar+tiled with their numbers
/// meaning the same thing the golden path's would.
///
/// Usage: bench_scale [--quick] [--nodes N] [--out FILE.json]
///   --quick   CI mode: 1k + 10k cells only, short horizons, and a hard
///             assert that the 10k cell stays under the committed
///             resident-bytes-per-node ceiling.
///   --nodes   run one extra cell at exactly N nodes, N an integer >= 2
///             (also GLR_BENCH_NODES).
///   --out     machine-readable results (default BENCH_scale.json).
/// Full mode sweeps 1k / 10k / 100k full runs plus a 1M-node smoke cell.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

// Sanitizer shadow memory multiplies RSS by an arbitrary factor, so the
// idle-memory ceiling is only meaningful in plain builds; sanitized CI legs
// still get the A/B bit-identical gate and the completion check.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GLR_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GLR_BENCH_SANITIZED 1
#endif
#endif
#ifndef GLR_BENCH_SANITIZED
#define GLR_BENCH_SANITIZED 0
#endif

namespace {

using glr::bench::benchNodes;
using glr::bench::currentRssBytes;
using glr::bench::hostJson;
using glr::bench::peakRssBytes;
using glr::bench::scalePopulation;
using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::KernelQueue;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SpatialIndexMode;

/// Idle-node resident ceiling the scale path commits to (bytes/node),
/// asserted on every >=10k cell. The roadmap's aspirational figure is 1 KB.
/// An idle GLR node today holds ~0.9 KB of constructed state: its MAC
/// (320 B, which keeps only the end of its latest transmission) and the
/// one-slot ring its interface queue grows on the first hello (64 B), its
/// GLR agent (392 B: hello service and an empty message buffer whose areas
/// are built at the first insert; counters and the location table are
/// built at first use, so a relay that never counts holds neither) and its
/// mobility model and world entry. Beside that sit bounded steady-state
/// tables (the one-hop neighbor table, whose records share each hello's
/// neighbor list with the sender instead of copying it, the sender's two
/// list blocks, traffic-node locations; MAC duplicate entries only for
/// unicast senders, so none on a node that only hears hellos), the
/// kernel's event slab (4 slots of 64 B per node) and the calendar wheel's
/// pooled records (40 B each). Measured on a 4-core Xeon (g++ 12.2):
/// 1.9 KB/node at 10k nodes after 30 sim-s, 2.0 KB at 100k after 10 sim-s
/// and 1.7 KB for the 1M smoke, so the budget is 2.5 KB, 22 % above the
/// largest. What the ceiling really polices is boundedness: without the
/// eviction horizons a 10k cell grew by ~350 B/node per sim-second
/// (8.6 KB/node after 10 sim-s); with them growth stops at the horizon.
/// Closing the gap to 1 KB needs SoA-pooled agents/MACs (roadmap item).
constexpr double kIdleBytesPerNodeCeiling = 2560.0;

/// Base config every cell scales from: the paper's GLR setup with a fixed
/// small traffic subset (45 senders regardless of population) so added
/// nodes are idle relays.
ScenarioConfig baseConfig(int nodes, double simTime, int messages) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.seed = 7;
  scalePopulation(cfg, nodes);
  cfg.trafficNodes = std::min(nodes, 45);
  cfg.simTime = simTime;
  cfg.numMessages = messages;
  cfg.kernelQueue = KernelQueue::kCalendar;
  cfg.spatialIndex = SpatialIndexMode::kTiled;
  // Steady-state table bounds: without eviction every node accumulates a
  // record for everything it has ever heard (~300 B/node per sim-second at
  // city densities), which would swamp the idle-node budget on any long
  // horizon. Applied identically across the A/B matrix, so the
  // bit-identical gate still covers the queue/index combinations.
  cfg.neighborEvictAfterFactor = 2.0;
  cfg.locationEvictAfter = 15.0;
  return cfg;
}

struct Cell {
  int nodes = 0;
  double simTime = 0.0;
  ScenarioResult result;
  double wall = 0.0;
  double setup = 0.0;
  double eventsPerSec = 0.0;
  double bytesPerNode = 0.0;
  bool smoke = false;  // 1M cell: completion matters, numbers are indicative
};

Cell runCell(int nodes, double simTime, int messages, bool smoke) {
  Cell c;
  c.nodes = nodes;
  c.simTime = simTime;
  c.smoke = smoke;
  const std::size_t rss0 = currentRssBytes();
  const auto wall0 = std::chrono::steady_clock::now();
  c.result = runScenario(baseConfig(nodes, simTime, messages));
  c.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
               .count();
  const std::size_t hwm = peakRssBytes();
  c.eventsPerSec = static_cast<double>(c.result.eventsExecuted) / c.wall;
  c.bytesPerNode = hwm > rss0 ? static_cast<double>(hwm - rss0) /
                                    static_cast<double>(nodes)
                              : 0.0;
  // Timed after the peak read: the set-up run's smaller peak cannot count.
  const auto setup0 = std::chrono::steady_clock::now();
  (void)runScenario(baseConfig(nodes, 0.0, messages));
  c.setup = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          setup0)
                .count();
  std::printf(
      "%8d nodes  %6.1f sim-s  %10llu events  %7.2f wall-s  %7.3f setup-s  "
      "%8.0f ev/s  %7.1f B/node%s\n",
      nodes, simTime,
      static_cast<unsigned long long>(c.result.eventsExecuted), c.wall,
      c.setup, c.eventsPerSec, c.bytesPerNode, smoke ? "  [smoke]" : "");
  return c;
}

/// Runs the {queue} x {index} matrix at one size and asserts every combo
/// reproduces the golden-path (heap4 + snapshot) result bit for bit.
bool abMatrixIdentical(int nodes, double simTime, int messages) {
  ScenarioConfig cfg = baseConfig(nodes, simTime, messages);
  cfg.kernelQueue = KernelQueue::kHeap4;
  cfg.spatialIndex = SpatialIndexMode::kSnapshot;
  const ScenarioResult golden = runScenario(cfg);
  bool ok = true;
  for (const KernelQueue q : {KernelQueue::kHeap4, KernelQueue::kCalendar}) {
    for (const SpatialIndexMode s :
         {SpatialIndexMode::kSnapshot, SpatialIndexMode::kTiled}) {
      if (q == KernelQueue::kHeap4 && s == SpatialIndexMode::kSnapshot) {
        continue;
      }
      cfg.kernelQueue = q;
      cfg.spatialIndex = s;
      const ScenarioResult r = runScenario(cfg);
      const bool same = bitIdenticalIgnoringWall(golden, r);
      std::printf("A/B %dn %s+%s: %s\n", nodes,
                  q == KernelQueue::kCalendar ? "calendar" : "heap4",
                  s == SpatialIndexMode::kTiled ? "tiled" : "snapshot",
                  same ? "bit-identical" : "DIVERGED");
      ok = ok && same;
    }
  }
  return ok;
}

}  // namespace

int benchMain(int argc, char** argv) {
  bool quick = false;
  int extraNodes = benchNodes(0);
  std::string outPath = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      extraNodes = glr::bench::nodesFlag(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--nodes N] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("scale bench (%s mode): calendar queue + tiled index\n",
              quick ? "quick" : "full");

  // The A/B gate first: if any combination diverges, the sweep numbers
  // would not be comparable to the golden path and the bench must fail.
  const bool abOk = abMatrixIdentical(1000, quick ? 20.0 : 60.0, 40);
  if (!abOk) {
    std::fprintf(stderr, "bench_scale: A/B matrix diverged — aborting\n");
    return 1;
  }

  // Ascending cell sizes so each cell's RSS high-water delta is its own.
  std::vector<Cell> cells;
  if (quick) {
    cells.push_back(runCell(1000, 20.0, 40, false));
    cells.push_back(runCell(10000, 10.0, 40, false));
  } else {
    cells.push_back(runCell(1000, 60.0, 60, false));
    cells.push_back(runCell(10000, 30.0, 60, false));
    cells.push_back(runCell(100000, 10.0, 60, false));
  }
  if (extraNodes >= 2) {
    cells.push_back(runCell(extraNodes, quick ? 10.0 : 20.0, 40, false));
  }
  if (!quick) {
    // 1M-node smoke: construction + a short event horizon; completing at
    // all (and under the idle-memory ceiling) is the acceptance bar.
    cells.push_back(runCell(1000000, 1.5, 0, true));
  }

  // Idle-memory ceiling: meaningful from 10k nodes up (smaller cells are
  // dominated by fixed per-run overhead, not per-node state).
  bool memOk = true;
  for (const Cell& c : cells) {
    if (GLR_BENCH_SANITIZED != 0) {
      std::printf("idle-memory ceiling skipped (sanitized build)\n");
      break;
    }
    if (c.nodes < 10000 || c.bytesPerNode <= 0.0) continue;
    if (c.bytesPerNode > kIdleBytesPerNodeCeiling) {
      std::fprintf(stderr,
                   "bench_scale: %d-node cell resident %.1f bytes/node "
                   "exceeds the %.0f B idle ceiling\n",
                   c.nodes, c.bytesPerNode, kIdleBytesPerNodeCeiling);
      memOk = false;
    }
  }
  if (!memOk) return 1;

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"host\": %s,\n", hostJson().c_str());
  std::fprintf(out,
               "  \"path\": \"calendar queue + tiled receiver index\",\n");
  std::fprintf(out, "  \"ab_matrix_bit_identical\": true,\n");
  std::fprintf(out, "  \"idle_bytes_per_node_ceiling\": %.0f,\n",
               kIdleBytesPerNodeCeiling);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"sim_seconds\": %.1f, "
                 "\"events\": %llu, \"wall_seconds\": %.2f, "
                 "\"setup_seconds\": %.3f, \"events_per_sec\": %.0f, "
                 "\"resident_bytes_per_node\": %.1f, \"smoke\": %s}%s\n",
                 c.nodes, c.simTime,
                 static_cast<unsigned long long>(c.result.eventsExecuted),
                 c.wall, c.setup, c.eventsPerSec, c.bytesPerNode,
                 c.smoke ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return glr::bench::guardedMain("bench_scale", benchMain, argc, argv);
}
