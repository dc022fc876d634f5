/// \file bench_mobility_matrix.cpp
/// Scenario-diversity matrix: GLR vs. epidemic vs. spray-and-wait across
/// every extension mobility model x churn level, executed as one
/// declarative SweepRunner grid. This is the workload the paper never ran —
/// its evaluation is random waypoint only — and the numbers show how each
/// protocol's delivery/latency/storage trade-off shifts when node density
/// concentrates (cluster), hugs the perimeter (direction), follows streets
/// (manhattan) or drifts smoothly (gauss_markov), with and without radios
/// duty-cycling off.
///
/// Usage: bench_mobility_matrix [--quick] [--out FILE.json]
///   --quick  CI mode: tiny cells, plus a 1-vs-2-thread bit-identical
///            cross-check over the whole matrix (guards the determinism of
///            every new mobility model and the churn event paths under the
///            parallel engine).
///   --out    machine-readable results (default BENCH_mobility.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"

namespace {

using glr::bench::Agg;
using glr::bench::aggregate;
using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::churnPreset;
using glr::experiment::Protocol;
using glr::experiment::protocolName;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

struct Cell {
  Protocol protocol;
  std::string mobility;
  std::string churn;
};

std::vector<ScenarioConfig> matrixGrid(const std::vector<Cell>& cells,
                                       bool quick) {
  std::vector<ScenarioConfig> grid;
  grid.reserve(cells.size());
  for (const Cell& cell : cells) {
    ScenarioConfig cfg;
    cfg.protocol = cell.protocol;
    cfg.mobility.model = cell.mobility;
    cfg.churn = churnPreset(cell.churn);
    cfg.radius = quick ? 150.0 : 100.0;
    if (quick) {
      cfg.numMessages = 30;
      cfg.simTime = 200.0;
    } else if (glr::experiment::paperScale()) {
      cfg.numMessages = 1980;
      cfg.simTime = 3800.0;
    } else {
      cfg.numMessages = 400;
      cfg.simTime = 1200.0;
    }
    grid.push_back(cfg);
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_mobility.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<Protocol> protocols = {
      Protocol::kGlr, Protocol::kEpidemic, Protocol::kSprayAndWait};
  const std::vector<std::string> mobilities =
      quick ? std::vector<std::string>{"direction", "gauss_markov",
                                       "manhattan", "cluster"}
            : std::vector<std::string>{"waypoint", "direction",
                                       "gauss_markov", "manhattan",
                                       "cluster"};
  const std::vector<std::string> churns = {"none", "moderate"};

  std::vector<Cell> cells;
  for (const auto& mob : mobilities) {
    for (const auto& churn : churns) {
      for (const Protocol p : protocols) cells.push_back({p, mob, churn});
    }
  }
  const std::vector<ScenarioConfig> grid = matrixGrid(cells, quick);
  const int runs = glr::experiment::benchRuns(quick ? 1 : 4);

  glr::bench::banner("Scenario-diversity matrix: protocol x mobility x churn",
                     "extension beyond the paper's waypoint-only evaluation",
                     runs);
  std::printf("%zu cells (%zu mobility x %zu churn x %zu protocols), "
              "%d seed(s) each\n\n",
              grid.size(), mobilities.size(), churns.size(), protocols.size(),
              runs);

  SweepRunner::Options opts;
  opts.progress = true;
  opts.label = "mobility-matrix";
  // Quick mode pins the table run to one thread so it doubles as the
  // serial baseline of the determinism check below (no third execution).
  if (quick) opts.threads = 1;
  SweepRunner runner{opts};
  const std::vector<std::vector<ScenarioResult>> results =
      runner.run(grid, runs);

  if (quick) {
    // Determinism guard: the whole matrix re-run on a different thread
    // count must land bit-identically — churn toggles, mobility draws,
    // heterogeneous event interleavings and all.
    SweepRunner::Options pairOpts;
    pairOpts.threads = 2;
    SweepRunner pairRunner{pairOpts};
    const auto threaded = pairRunner.run(grid, runs);
    const auto& serial = results;
    for (std::size_t g = 0; g < serial.size(); ++g) {
      for (std::size_t s = 0; s < serial[g].size(); ++s) {
        if (!bitIdenticalIgnoringWall(serial[g][s], threaded[g][s])) {
          std::fprintf(stderr,
                       "FATAL: cell %zu seed %zu diverged across thread "
                       "counts — scenario-diversity determinism broken\n",
                       g, s);
          return 1;
        }
      }
    }
    std::printf("determinism: 1-thread and 2-thread matrices bit-identical "
                "(%zu cells)\n\n",
                grid.size() * serial.front().size());

    // Per-cell event-count pins (seed 0). If any cell executes a different
    // number of events than when the pins were baked, the scenario being
    // measured changed — delivery/latency shifts in that cell are not
    // comparable until the pins are regenerated (GLR_QUICK_PIN_DUMP=1).
    static constexpr std::uint64_t kQuickEventPins[] = {
        160656, 137903, 93340,  155315, 131228, 87729,
        106162, 153236, 102237, 118186, 146995, 97502,
        153186, 136279, 94833,  155961, 129197, 91392,
        104843, 169694, 103491, 97269,  166528, 96872,
    };
    static_assert(std::size(kQuickEventPins) == 24,
                  "one pin per quick matrix cell");
    if (std::getenv("GLR_QUICK_PIN_DUMP") != nullptr) {
      std::printf("kQuickEventPins = {");
      for (const auto& cell : results) {
        std::printf("%llu, ",
                    static_cast<unsigned long long>(
                        cell.front().eventsExecuted));
      }
      std::printf("}\n\n");
    } else if (grid.size() == std::size(kQuickEventPins)) {
      for (std::size_t g = 0; g < grid.size(); ++g) {
        if (results[g][0].eventsExecuted != kQuickEventPins[g]) {
          std::fprintf(stderr,
                       "FATAL: cell %zu (%s/%s/%s) executed %llu events, "
                       "pinned %llu — the measured scenario changed\n",
                       g, protocolName(cells[g].protocol),
                       cells[g].mobility.c_str(), cells[g].churn.c_str(),
                       static_cast<unsigned long long>(
                           results[g][0].eventsExecuted),
                       static_cast<unsigned long long>(kQuickEventPins[g]));
          return 1;
        }
      }
      std::printf("event pins: all %zu quick cells match the baked "
                  "event counts\n\n",
                  grid.size());
    }
  }

  std::printf("%-13s %-13s %-9s %10s %12s %10s %12s\n", "protocol",
              "mobility", "churn", "delivery", "latency(s)", "avgPeak",
              "downDrops");
  std::vector<Agg> aggs;
  std::vector<double> downDrops;
  aggs.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Agg a = aggregate(results[i]);
    double drops = 0.0;
    for (const ScenarioResult& r : results[i]) {
      drops += static_cast<double>(r.macRadioDownDrops) /
               static_cast<double>(results[i].size());
    }
    std::printf("%-13s %-13s %-9s %9.1f%% %12.1f %10.1f %12.0f\n",
                protocolName(cells[i].protocol), cells[i].mobility.c_str(),
                cells[i].churn.c_str(), 100.0 * a.ratio.mean, a.latency.mean,
                a.avgPeak.mean, drops);
    aggs.push_back(a);
    downDrops.push_back(drops);
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"mobility_matrix\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"seeds_per_cell\": %d,\n", runs);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    std::fprintf(out,
                 "    {\"protocol\": \"%s\", \"mobility\": \"%s\", "
                 "\"churn\": \"%s\", \"delivery_ratio\": %.6f, "
                 "\"latency_s\": %.3f, \"avg_peak_storage\": %.3f, "
                 "\"radio_down_drops\": %.0f}%s\n",
                 protocolName(cells[i].protocol), cells[i].mobility.c_str(),
                 cells[i].churn.c_str(), aggs[i].ratio.mean,
                 aggs[i].latency.mean, aggs[i].avgPeak.mean, downDrops[i],
                 i + 1 < aggs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath.c_str());
  return 0;
}
