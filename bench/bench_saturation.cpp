/// \file bench_saturation.cpp
/// Overload survival: offered-load sweep to locate each protocol's
/// saturation knee. The paper's workload (one message per second) never
/// stresses the network; this bench drives Poisson offered load from well
/// below to far above capacity — finite interface queues and finite storage
/// — and records where goodput stops tracking load and delivery collapses,
/// for GLR (with and without its overload controls: buffer-pressure custody
/// watermark + AIMD custody window), epidemic and spray-and-wait.
///
/// Full mode also runs a million-message stress cell: the stochastic
/// traffic engine offering ~1.2M messages to a saturated GLR network, as a
/// scaling proof that overload is survived by counted rejection (queue
/// drops, custody refusals, evictions) rather than by unbounded buffers.
/// The JSON is stamped with the host and build, since the stress cell
/// records its wall time.
///
/// Usage: bench_saturation [--quick] [--out FILE.json]
///   --quick  CI mode: tiny cells, plus a 1-vs-2-thread bit-identical
///            cross-check over the whole grid (saturated queues, refusal
///            backoffs and fault-free overload paths under the parallel
///            engine) and skip the stress cell.
///   --out    machine-readable results (default BENCH_saturation.json).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"

namespace {

using glr::bench::hostJson;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

struct Variant {
  const char* name;
  Protocol protocol;
  bool overloadControls;  // GLR custody watermark + AIMD window
};

constexpr Variant kVariants[] = {
    {"GLR", Protocol::kGlr, false},
    {"GLR+ctl", Protocol::kGlr, true},
    {"Epidemic", Protocol::kEpidemic, false},
    {"SprayAndWait", Protocol::kSprayAndWait, false},
};

ScenarioConfig cellConfig(const Variant& v, double load, bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = v.protocol;
  cfg.radius = quick ? 150.0 : 100.0;
  if (quick) {
    cfg.numNodes = 16;
    cfg.trafficNodes = 14;
    cfg.simTime = 90.0;
  } else {
    cfg.simTime = 600.0;
  }
  // Finite resources everywhere: saturation must be survived by counted
  // rejection, not absorbed by unbounded buffers.
  cfg.storageLimit = quick ? 16 : 40;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = load;
  if (v.overloadControls) {
    cfg.custodyWatermark = cfg.storageLimit / 2;
    cfg.congestionControl = true;
  }
  return cfg;
}

}  // namespace

int benchMain(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_saturation.json";
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

  const std::vector<double> loads =
      quick ? std::vector<double>{0.5, 4.0, 16.0}
            : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
  const int runs = glr::experiment::benchRuns(quick ? 1 : 2);

  std::vector<ScenarioConfig> grid;
  for (const Variant& v : kVariants) {
    for (const double load : loads) {
      grid.push_back(cellConfig(v, load, quick));
    }
  }

  glr::bench::banner("Saturation sweep: offered load vs. goodput",
                     "overload survival past the paper's 1 msg/s workload",
                     runs);
  std::printf("%zu cells (%zu variants x %zu loads), %d seed(s) each\n\n",
              grid.size(), std::size(kVariants), loads.size(), runs);

  SweepRunner::Options opts;
  opts.progress = true;
  opts.label = "saturation";
  if (quick) opts.threads = 1;  // doubles as the serial determinism baseline
  SweepRunner runner{opts};
  const std::vector<std::vector<ScenarioResult>> results =
      runner.run(grid, runs);

  if (quick && !glr::bench::sameOnTwoThreads(grid, runs, results)) return 1;

  // Per-cell means. Goodput = delivered / traffic window; the knee is where
  // it stops tracking offered load.
  struct Row {
    double created = 0, delivered = 0, goodput = 0, ratio = 0;
    double queueDrops = 0, rejects = 0, evictions = 0, refusals = 0;
  };
  std::vector<Row> rows(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double window = grid[i].simTime - grid[i].trafficStart;
    const double n = static_cast<double>(results[i].size());
    Row& row = rows[i];
    for (const ScenarioResult& r : results[i]) {
      row.created += static_cast<double>(r.created) / n;
      row.delivered += static_cast<double>(r.delivered) / n;
      row.ratio += r.deliveryRatio / n;
      row.queueDrops += static_cast<double>(r.macQueueDrops) / n;
      row.rejects += static_cast<double>(r.sendRejects) / n;
      row.evictions += static_cast<double>(r.bufferEvictions) / n;
      row.refusals += static_cast<double>(r.custodyRefusals) / n;
    }
    row.goodput = row.delivered / window;
  }

  std::printf("%-13s %8s %9s %9s %9s %10s %10s %10s %9s\n", "variant",
              "load/s", "created", "goodput/s", "delivery", "queueDrop",
              "rejects", "evictions", "refusals");
  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    for (std::size_t l = 0; l < loads.size(); ++l) {
      const std::size_t i = v * loads.size() + l;
      const Row& row = rows[i];
      std::printf(
          "%-13s %8.2f %9.0f %9.2f %8.1f%% %10.0f %10.0f %10.0f %9.0f\n",
          kVariants[v].name, loads[l], row.created, row.goodput,
          100.0 * row.ratio, row.queueDrops, row.rejects, row.evictions,
          row.refusals);
    }
    std::printf("\n");
  }

  // Million-message stress cell (full mode): overload survived by counted
  // rejection at two orders of magnitude past the knee.
  ScenarioResult stress{};
  double stressWall = 0.0;
  bool haveStress = false;
  if (!quick) {
    ScenarioConfig cfg = cellConfig(kVariants[1], 3000.0, false);
    cfg.simTime = 400.0;  // ~1.17M offered messages
    const auto wall0 = std::chrono::steady_clock::now();
    stress = runScenario(cfg);
    stressWall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
    haveStress = true;
    std::printf(
        "stress   GLR+ctl @3000 msg/s x 390 s: %zu created, %zu delivered, "
        "%llu queueDrops, %llu rejects, %llu evictions, %llu refusals, "
        "%llu events, %.1f s wall\n",
        stress.created, stress.delivered,
        static_cast<unsigned long long>(stress.macQueueDrops),
        static_cast<unsigned long long>(stress.sendRejects),
        static_cast<unsigned long long>(stress.bufferEvictions),
        static_cast<unsigned long long>(stress.custodyRefusals),
        static_cast<unsigned long long>(stress.eventsExecuted), stressWall);
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"saturation\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"host\": %s,\n", hostJson().c_str());
  std::fprintf(out, "  \"seeds_per_cell\": %d,\n", runs);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    for (std::size_t l = 0; l < loads.size(); ++l) {
      const std::size_t i = v * loads.size() + l;
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"variant\": \"%s\", \"offered_load_per_s\": %.2f, "
                   "\"created\": %.1f, \"delivered\": %.1f, "
                   "\"goodput_per_s\": %.3f, \"delivery_ratio\": %.6f, "
                   "\"mac_queue_drops\": %.1f, \"send_rejects\": %.1f, "
                   "\"buffer_evictions\": %.1f, \"custody_refusals\": "
                   "%.1f}%s\n",
                   kVariants[v].name, loads[l], row.created, row.delivered,
                   row.goodput, row.ratio, row.queueDrops, row.rejects,
                   row.evictions, row.refusals,
                   i + 1 < rows.size() ? "," : "");
    }
  }
  std::fprintf(out, "  ]%s\n", haveStress ? "," : "");
  if (haveStress) {
    std::fprintf(out,
                 "  \"stress\": {\"variant\": \"GLR+ctl\", "
                 "\"offered_load_per_s\": 3000.0, \"window_s\": 390.0, "
                 "\"created\": %zu, \"delivered\": %zu, "
                 "\"mac_queue_drops\": %llu, \"send_rejects\": %llu, "
                 "\"buffer_evictions\": %llu, \"custody_refusals\": %llu, "
                 "\"events\": %llu, \"wall_seconds\": %.1f}\n",
                 stress.created, stress.delivered,
                 static_cast<unsigned long long>(stress.macQueueDrops),
                 static_cast<unsigned long long>(stress.sendRejects),
                 static_cast<unsigned long long>(stress.bufferEvictions),
                 static_cast<unsigned long long>(stress.custodyRefusals),
                 static_cast<unsigned long long>(stress.eventsExecuted),
                 stressWall);
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return glr::bench::guardedMain("bench_saturation", benchMain, argc, argv);
}
