/// \file glrbench.cpp
/// The repository benchmark: times the simulator's public entry points on
/// four workloads, checks their outputs, and splits wall time across the
/// src/ modules with a sampling profiler. See benchmark/README.md.
///
/// Usage:
///   glrbench run   --workload W [--seed N] [--seconds S] [--quick] [--out F]
///   glrbench trace --workload W [--seed N] [--seconds S] [--quick] [--out F]
///   glrbench compare A.json... -- B.json...
///   glrbench list
///
/// run    end-to-end metrics (tracing off), with every correctness check.
/// trace  per-layer metrics: sampled self time per module, exact counts,
///        sweep-engine and opt-in-layer costs.
/// --out  result file (default glrbench-<mode>-<workload>.json).
/// Each workload runs in its own process, so peak RSS belongs to it.
/// Exit status: 0 clean; 1 a run failed a check or the build is not an
/// optimized, unsanitized Release build; 2 usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compare.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "result.hpp"
#include "sampler.hpp"
#include "spanner/ldtg.hpp"
#include "workloads.hpp"

namespace glrbench {
namespace {

using Clock = std::chrono::steady_clock;
using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::runScenario;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool quick = false;
  std::string out;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One executed unit of work.
struct Unit {
  std::uint64_t seed = 0;
  double wall = 0.0;
  std::vector<ScenarioResult> cells;
};

/// Counts one run attempt; a throw (including a failed check) counts it as
/// failed with its reason. Returns whether the attempt succeeded.
template <class F>
bool attempt(Result& r, const std::string& what, F&& f) {
  ++r.attempted;
  try {
    f();
    return true;
  } catch (const std::exception& e) {
    r.fail(what + ": " + e.what());
    return false;
  }
}

/// Every created message is delivered, still buffered, still queued at a
/// MAC, or accounted by a counted drop (copies make the right side larger).
void requireConservation(const ScenarioResult& c) {
  const std::uint64_t drops =
      c.advBlackholeDrops + c.advGreyholeDrops + c.advSelfishRefusals +
      c.bufferEvictions + c.expiredDrops + c.macQueueDrops + c.macRetryDrops +
      c.macRadioDownDrops;
  if (c.created > c.delivered + c.bufferedAtEnd + c.macQueueAtEnd + drops) {
    throw std::runtime_error{"conservation violated: " +
                             std::to_string(c.created) +
                             " created, too few delivered/held/dropped"};
  }
}

void requireIdentical(const std::vector<ScenarioResult>& a,
                      const std::vector<ScenarioResult>& b, const char* what) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = bitIdenticalIgnoringWall(a[i], b[i]);
  }
  if (!same) {
    throw std::runtime_error{std::string{what} +
                             " diverged (results not bit-identical)"};
  }
}

unsigned sweepThreads() { return std::min(4u, usableCpus()); }

/// Passes over a run's inputs; each input keeps its best wall, which
/// filters host contention that lasts seconds.
constexpr int kPasses = 4;

int passCount(const Options& o) { return o.quick ? 2 : kPasses; }

/// Inputs whose passes fill --seconds on the calibration host.
int inputCount(const Workload& w, const Options& o) {
  if (o.quick) return 1;
  return std::max(
      1, static_cast<int>(o.seconds / (kPasses * w.unitSeconds) + 0.5));
}

Unit runUnit(const Workload& w, const Options& o, std::uint64_t seed) {
  const Scale& sc = o.quick ? w.quick : w.full;
  const std::vector<ScenarioConfig> grid = w.grid(seed, o.quick);
  Unit u;
  u.seed = seed;
  const auto t0 = Clock::now();
  if (w.sweep) {
    SweepRunner::Options so;
    so.threads = sweepThreads();
    SweepRunner runner{so};
    for (auto& row : runner.run(grid, sc.replicates)) {
      for (auto& cell : row) u.cells.push_back(std::move(cell));
    }
  } else {
    u.cells.push_back(runScenario(grid.front()));
  }
  u.wall = since(t0);
  for (const ScenarioResult& c : u.cells) requireConservation(c);
  return u;
}

/// The reference cell must execute its pinned event count: a speed-up may
/// never come from simulating something else. `first` is input 0's unit
/// when it ran.
void checkPin(const Workload& w, const Options& o, const Unit* first,
              Result& r) {
  const Scale& sc = o.quick ? w.quick : w.full;
  if (sc.pinnedEvents == 0) return;
  attempt(r, "reference cell seed " + std::to_string(w.referenceSeed), [&] {
    const std::uint64_t events =
        first != nullptr && first->seed == w.referenceSeed
            ? first->cells.front().eventsExecuted
            : runScenario(w.grid(w.referenceSeed, o.quick).front())
                  .eventsExecuted;
    if (events != sc.pinnedEvents) {
      throw std::runtime_error{"executed " + std::to_string(events) +
                               " events, pinned " +
                               std::to_string(sc.pinnedEvents)};
    }
  });
}

int runMode(const Workload& w, const Options& o) {
  const CpuTimes cpu0 = readCpuTimes();
  const Scale& sc = o.quick ? w.quick : w.full;
  Result r;
  r.mode = "run";
  r.workload = w.name;
  r.seed = o.seed;
  r.seconds = o.seconds;
  r.quick = o.quick;
  const int inputs = inputCount(w, o);
  const int passes = passCount(o);
  std::printf("glrbench run %s: seed %llu, %d inputs x %d passes, %s\n",
              w.name, static_cast<unsigned long long>(o.seed), inputs, passes,
              w.sweep ? "SweepRunner::run per unit" : "runScenario per unit");

  // Set-up (construction and the t=0 burst of input 0's configs) is timed
  // between passes, so its median spans the run rather than one moment.
  const std::vector<ScenarioConfig> grid0 =
      w.grid(unitSeed(o.seed, 0, sc.replicates), o.quick);
  const int setupReps = o.quick ? 3 : w.setupReps;
  std::vector<double> setups;
  std::vector<Unit> first(static_cast<std::size_t>(inputs));
  std::vector<std::vector<double>> walls(static_cast<std::size_t>(inputs));
  std::vector<bool> ok(static_cast<std::size_t>(inputs), true);
  for (int p = 0; p < passes; ++p) {
    for (int k = p * setupReps / passes; k < (p + 1) * setupReps / passes;
         ++k) {
      attempt(r, "set-up", [&] {
        const auto t0 = Clock::now();
        for (const ScenarioConfig& cfg : grid0) {
          (void)runScenario(setupConfig(cfg));
        }
        setups.push_back(since(t0));
      });
    }
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (!ok[i]) continue;
      const std::uint64_t seed =
          unitSeed(o.seed, static_cast<int>(i), sc.replicates);
      ok[i] = attempt(
          r, "input seed " + std::to_string(seed) + " pass " + std::to_string(p),
          [&] {
            Unit u = runUnit(w, o, seed);
            walls[i].push_back(u.wall);
            if (p == 0) {
              first[i] = std::move(u);
            } else {
              requireIdentical(u.cells, first[i].cells, "repeat pass");
            }
          });
    }
  }
  checkPin(w, o, ok.front() ? &first.front() : nullptr, r);

  double bestSum = 0.0;
  double events = 0.0;
  std::size_t timed = 0;
  std::size_t measured = 0;
  std::vector<double> delivery;
  std::vector<double> p50;
  std::vector<double> p90;
  std::ostringstream details;
  details << "  \"inputs\": [";
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!ok[i]) continue;
    double inputEvents = 0.0;
    for (const ScenarioResult& c : first[i].cells) {
      inputEvents += static_cast<double>(c.eventsExecuted);
      delivery.push_back(c.deliveryRatio);
      p50.push_back(c.latencyP50);
      p90.push_back(c.latencyP90);
    }
    bestSum += *std::min_element(walls[i].begin(), walls[i].end());
    events += inputEvents;
    timed += walls[i].size();
    details << (measured++ ? ",\n    " : "\n    ") << "{\"seed\": "
            << first[i].seed << ", \"events\": " << jsonNumber(inputEvents)
            << ", \"walls_s\": [";
    for (std::size_t p = 0; p < walls[i].size(); ++p) {
      details << (p ? ", " : "") << jsonNumber(walls[i][p]);
    }
    details << "]}";
  }
  details << "],\n  \"setups_s\": [";
  for (std::size_t k = 0; k < setups.size(); ++k) {
    details << (k ? ", " : "") << jsonNumber(setups[k]);
  }
  details << "]";
  r.details = details.str();

  const double n = static_cast<double>(measured);
  r.set("wall_s", measured > 0 ? bestSum / n : 0.0, timed);
  r.set("events_per_s", bestSum > 0.0 ? events / bestSum : 0.0, timed);
  r.set("setup_s", median(setups), setups.size());
  r.set("peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6, 1);
  r.set("failed_share",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        r.attempted);
  r.set("delivery_ratio", mean(delivery), delivery.size());
  r.set("latency_p50_s", mean(p50), p50.size());
  r.set("latency_p90_s", mean(p90), p90.size());

  writeResult(r, o.out, cpu0);
  return r.failed == 0 && releaseBuild(nullptr) ? 0 : 1;
}

/// Per-cell results and walls of cells run serially on this thread.
struct Pass {
  std::vector<ScenarioResult> cells;
  std::vector<double> walls;
  std::uint64_t memoHits = 0;
  std::uint64_t memoMisses = 0;
  [[nodiscard]] double wall() const {
    return std::accumulate(walls.begin(), walls.end(), 0.0);
  }
};

/// Runs one cell on this thread and appends it to `p`. The spanner memo's
/// counters are thread-local and reset by every runScenario, so they are
/// read right after the call.
void runCell(const ScenarioConfig& cfg, Pass& p, Result& r, const char* label) {
  attempt(r, std::string{label} + " cell seed " + std::to_string(cfg.seed),
          [&] {
            const auto t0 = Clock::now();
            ScenarioResult res = runScenario(cfg);
            p.walls.push_back(since(t0));
            const glr::spanner::SpannerCacheStats st =
                glr::spanner::localSpannerCacheStats();
            p.memoHits += st.hits;
            p.memoMisses += st.misses;
            requireConservation(res);
            p.cells.push_back(std::move(res));
          });
}

void setCounts(Result& r, const Pass& p) {
  const std::size_t n = p.cells.size();
  auto sum = [&](auto field) {
    double s = 0.0;
    for (const ScenarioResult& c : p.cells) s += static_cast<double>(c.*field);
    return s;
  };
  r.set("sim.events", sum(&ScenarioResult::eventsExecuted), n);
  r.set("mac.data_tx", sum(&ScenarioResult::macDataTx), n);
  r.set("mac.collisions", sum(&ScenarioResult::collisions), n);
  r.set("mac.busy_deferrals", sum(&ScenarioResult::macBusyDeferrals), n);
  r.set("mac.ack_timeouts", sum(&ScenarioResult::macAckTimeouts), n);
  r.set("mac.queue_drops", sum(&ScenarioResult::macQueueDrops), n);
  r.set("mac.air_time_s", sum(&ScenarioResult::airTimeSeconds), n);
  const double checks = static_cast<double>(p.memoHits + p.memoMisses);
  r.set("spanner.computations", static_cast<double>(p.memoMisses), n);
  r.set("spanner.memo_hits", static_cast<double>(p.memoHits), n);
  r.set("spanner.memo_hit_ratio",
        checks > 0.0 ? static_cast<double>(p.memoHits) / checks : 0.0, n);
  r.set("core.data_sent", sum(&ScenarioResult::glrDataSent), n);
  r.set("core.custody_acks_sent", sum(&ScenarioResult::glrCustodyAcksSent), n);
  r.set("core.custody_refusals", sum(&ScenarioResult::custodyRefusals), n);
  r.set("core.cache_timeouts", sum(&ScenarioResult::glrCacheTimeouts), n);
  const double created = sum(&ScenarioResult::created);
  const double delivered = sum(&ScenarioResult::delivered);
  r.set("dtn.created", created, n);
  r.set("dtn.delivered", delivered, n);
  r.set("dtn.buffer_evictions", sum(&ScenarioResult::bufferEvictions), n);
  r.set("dtn.send_rejects", sum(&ScenarioResult::sendRejects), n);
  double peak = 0.0;
  std::vector<double> p50;
  std::vector<double> p90;
  for (const ScenarioResult& c : p.cells) {
    peak = std::max(peak, c.maxPeakStorage);
    p50.push_back(c.latencyP50);
    p90.push_back(c.latencyP90);
  }
  r.set("dtn.max_peak_storage", peak, n);
  r.set("dtn.delivery_ratio", created > 0.0 ? delivered / created : 0.0, n);
  r.set("dtn.latency_p50_s", median(p50), n);
  r.set("dtn.latency_p90_s", median(p90), n);
}

/// The opt-in layers on one cell, against its untraced wall `baseWall`:
/// the flight recorder on, periodic checkpoints (every quarter of the
/// horizon, so the last lands at its end), and a restore of that last
/// snapshot.
void measureOptInLayers(const ScenarioConfig& cell, const ScenarioResult& base,
                        double baseWall, const std::string& tempPrefix,
                        Result& r) {
  namespace fs = std::filesystem;
  double traceWall = 0.0;
  double records = 0.0;
  attempt(r, "flight recorder on", [&] {
    ScenarioConfig cfg = cell;
    cfg.tracePath = tempPrefix + ".trace.bin";
    const auto t0 = Clock::now();
    ScenarioResult res = runScenario(cfg);
    traceWall = since(t0);
    fs::remove(cfg.tracePath);
    records = static_cast<double>(res.traceEventsRecorded);
    res.traceEventsRecorded = 0;
    requireIdentical({res}, {base}, "traced run");
  });
  r.set("trace.overhead_share", traceWall / baseWall - 1.0, 1);
  r.set("trace.records", records, 1);

  double checkpointWall = 0.0;
  double bytes = 0.0;
  double restoreWall = 0.0;
  ScenarioConfig cfg = cell;
  cfg.checkpointEvery = cell.simTime / 4.0;
  cfg.checkpointPath = tempPrefix + ".ckpt";
  ScenarioResult written;
  const bool wrote = attempt(r, "checkpointing on", [&] {
    const auto t0 = Clock::now();
    written = runScenario(cfg);
    checkpointWall = since(t0);
    bytes = static_cast<double>(fs::file_size(cfg.checkpointPath));
  });
  if (wrote) {
    attempt(r, "restore", [&] {
      ScenarioConfig again = cfg;
      again.checkpointPath.clear();
      again.restoreFrom = cfg.checkpointPath;
      const auto t0 = Clock::now();
      const ScenarioResult res = runScenario(again);
      restoreWall = since(t0);
      requireIdentical({res}, {written}, "restored run");
    });
  }
  std::error_code ignored;
  fs::remove(cfg.checkpointPath, ignored);
  r.set("checkpoint.bytes", bytes, 1);
  r.set("checkpoint.overhead_share", checkpointWall / baseWall - 1.0, 1);
  r.set("checkpoint.restore_s", restoreWall, 1);
}

int traceMode(const Workload& w, const Options& o) {
  const CpuTimes cpu0 = readCpuTimes();
  const Scale& sc = o.quick ? w.quick : w.full;
  const SymbolMap map = SymbolMap::loadSelf();
  if (map.layeredCount() == 0) {
    throw std::runtime_error{"no simulator functions in .symtab"};
  }
  Sampler sampler{map};
  Result r;
  r.mode = "trace";
  r.workload = w.name;
  r.seed = o.seed;
  r.seconds = o.seconds;
  r.quick = o.quick;

  // The sampled cells: the run's inputs, or input 0's sweep cells.
  std::vector<ScenarioConfig> cells;
  if (w.sweep) {
    cells = expandCells(w.grid(unitSeed(o.seed, 0, sc.replicates), o.quick),
                        sc.replicates);
  } else {
    for (int i = 0; i < inputCount(w, o); ++i) {
      cells.push_back(
          w.grid(unitSeed(o.seed, i, sc.replicates), o.quick).front());
    }
  }
  std::printf("glrbench trace %s: seed %llu, %zu cells, %d Hz\n", w.name,
              static_cast<unsigned long long>(o.seed), cells.size(), kSampleHz);

  // One untimed cell first, so neither pass pays the process's cold start.
  attempt(r, "warm-up", [&] { (void)runScenario(cells.front()); });
  // Set-up alone (construction and the t=0 burst), repeated for at least a
  // second so even a 50-node set-up gathers thousands of samples.
  Sampler setupSampler{map};
  double setupWall = 0.0;
  int setups = 0;
  attempt(r, "sampled set-up", [&] {
    const std::vector<ScenarioConfig> grid0 =
        w.grid(unitSeed(o.seed, 0, sc.replicates), o.quick);
    const double minWall = o.quick ? 0.2 : 1.0;
    SamplingScope on{setupSampler};
    const auto t0 = Clock::now();
    do {
      for (const ScenarioConfig& cfg : grid0) {
        (void)runScenario(setupConfig(cfg));
      }
      ++setups;
    } while (since(t0) < minWall);
    setupWall = since(t0);
  });

  // Each cell runs untraced and then sampled, back to back, so contention
  // on the host (which lasts seconds) weighs on both sides of the overhead.
  Pass plain;
  Pass sampled;
  for (const ScenarioConfig& cfg : cells) {
    runCell(cfg, plain, r, "untraced");
    SamplingScope on{sampler};
    runCell(cfg, sampled, r, "sampled");
  }
  attempt(r, "sampled pass", [&] {
    requireIdentical(sampled.cells, plain.cells, "sampled pass");
  });

  // The engine: the same cells through SweepRunner on the pool, which must
  // reproduce the serial pass cell for cell.
  double speedup = 1.0;
  double busy = 1.0;
  std::vector<double> cellWalls = plain.walls;
  if (w.sweep) {
    attempt(r, "parallel sweep", [&] {
      SweepRunner::Options so;
      so.threads = sweepThreads();
      SweepRunner runner{so};
      const auto t0 = Clock::now();
      const auto rows = runner.run(
          w.grid(unitSeed(o.seed, 0, sc.replicates), o.quick), sc.replicates);
      const double wall = since(t0);
      std::vector<ScenarioResult> flat;
      cellWalls.clear();
      for (const auto& row : rows) {
        for (const ScenarioResult& c : row) {
          flat.push_back(c);
          cellWalls.push_back(c.wallSeconds);
        }
      }
      requireIdentical(flat, plain.cells, "parallel sweep vs serial");
      speedup = plain.wall() / wall;
      busy = std::accumulate(cellWalls.begin(), cellWalls.end(), 0.0) /
             (static_cast<double>(so.threads) * wall);
    });
  }

  const double tracedWall = sampled.wall();
  const double total = static_cast<double>(sampler.samples());
  for (int l = 0; l < static_cast<int>(kLayers.size()); ++l) {
    const double share =
        total > 0.0 ? static_cast<double>(sampler.layerSamples(l)) / total : 0.0;
    r.set(std::string{kLayers[static_cast<std::size_t>(l)]} + ".self_s",
          share * tracedWall, sampler.samples());
  }
  const double setupTotal = static_cast<double>(setupSampler.samples());
  for (int l = 0; l < static_cast<int>(kLayers.size()); ++l) {
    const double share =
        setupTotal > 0.0
            ? static_cast<double>(setupSampler.layerSamples(l)) / setupTotal
            : 0.0;
    r.set(std::string{kLayers[static_cast<std::size_t>(l)]} + ".setup_s",
          setups > 0 ? share * setupWall / setups : 0.0,
          setupSampler.samples());
  }
  r.set("profile.wall_s", tracedWall, sampled.cells.size());
  r.set("profile.samples", total, 1);
  r.set("profile.setup_samples", setupTotal, 1);
  // Median of per-cell ratios: one pair caught by a contention burst cannot
  // swing it.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(plain.walls.size(), sampled.walls.size());
       ++i) {
    ratios.push_back(sampled.walls[i] / plain.walls[i]);
  }
  r.set("profile.overhead_share", median(ratios) - 1.0, ratios.size());
  r.set("profile.unattributed_share",
        total > 0.0
            ? static_cast<double>(sampler.layerSamples(kRuntimeLayer)) / total
            : 0.0,
        sampler.samples());
  setCounts(r, plain);
  r.set("experiment.speedup_vs_serial", speedup, 1);
  r.set("experiment.pool_busy_share", busy, 1);
  r.set("experiment.cell_wall_p50_s", median(cellWalls), cellWalls.size());
  r.set("experiment.cell_wall_max_s",
        cellWalls.empty()
            ? 0.0
            : *std::max_element(cellWalls.begin(), cellWalls.end()),
        cellWalls.size());
  if (!plain.cells.empty()) {
    measureOptInLayers(cells.front(), plain.cells.front(), plain.walls.front(),
                       o.out, r);
  }

  // The functions the samples were charged to, heaviest first.
  std::vector<std::pair<std::uint32_t, std::size_t>> top;
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (sampler.functionSamples(i) > 0) {
      top.emplace_back(sampler.functionSamples(i), i);
    }
  }
  std::sort(top.rbegin(), top.rend());
  top.resize(std::min<std::size_t>(top.size(), 15));
  std::ostringstream prof;
  prof << "  \"profile\": {\"functions\": " << map.size()
       << ", \"layered_functions\": " << map.layeredCount()
       << ", \"unwind_misses\": " << sampler.unwindMisses()
       << ",\n    \"note\": " << jsonString(
              "self_s = share of samples x traced wall; header-inline code is "
              "charged to its caller's layer, lambda thunks to the module "
              "that defines the lambda")
       << ",\n    \"top\": [";
  std::printf("\ntop functions (header-inline code counts in its caller):\n");
  for (std::size_t k = 0; k < top.size(); ++k) {
    const auto& fn = map.at(top[k].second);
    std::string name = demangle(fn.mangled);
    if (name.size() > 160) name = name.substr(0, 157) + "...";
    const double share = static_cast<double>(top[k].first) / total;
    std::printf("  %5.1f%%  %-18s %s\n", 100.0 * share,
                kLayers[static_cast<std::size_t>(fn.layer)], name.c_str());
    prof << (k ? ",\n      " : "\n      ") << "{\"function\": "
         << jsonString(name) << ", \"layer\": "
         << jsonString(kLayers[static_cast<std::size_t>(fn.layer)])
         << ", \"share\": " << jsonNumber(share) << "}";
  }
  prof << "]}";
  r.details = prof.str();

  writeResult(r, o.out, cpu0);
  return r.failed == 0 && releaseBuild(nullptr) ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: glrbench run|trace --workload W [--seed N] "
               "[--seconds S] [--quick] [--out F]\n"
               "       glrbench compare A.json... -- B.json...\n"
               "       glrbench list\n");
  return 2;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  Options o;
  o.command = argv[1];
  if (o.command == "list") {
    for (const Workload& w : workloads()) {
      std::printf("%-10s %s\n", w.name, w.why);
    }
    return 0;
  }
  if (o.command == "compare") {
    std::vector<std::string> a;
    std::vector<std::string> b;
    bool second = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--") == 0) {
        second = true;
      } else {
        (second ? b : a).push_back(argv[i]);
      }
    }
    if (!second) return usage();
    return compareResults(a, b);
  }
  if (o.command != "run" && o.command != "trace") return usage();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--workload" && hasValue) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && hasValue) {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--out" && hasValue) {
      o.out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(o.seconds > 0.0)) return usage();
  const Workload* w = findWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "glrbench: unknown workload '%s' (see glrbench list)\n",
                 o.workload.c_str());
    return 2;
  }
  if (o.out.empty()) o.out = "glrbench-" + o.command + "-" + o.workload + ".json";
  const std::filesystem::path parent = std::filesystem::path{o.out}.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  return o.command == "run" ? runMode(*w, o) : traceMode(*w, o);
}

}  // namespace
}  // namespace glrbench

int main(int argc, char** argv) {
  try {
    return glrbench::dispatch(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "glrbench: bad argument (%s)\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glrbench: %s\n", e.what());
    return 1;
  }
}
