#pragma once
/// \file bench_common.hpp
/// Shared support for the sweep benches: the run banner, multi-seed
/// aggregation, the quick-mode determinism and event-pin checks,
/// resident-memory probes, the host stamp and population rescaling. The
/// paper's figures and tables live in bench_paper.cpp.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/tables.hpp"
#include "stats/summary.hpp"

namespace glr::bench {

using experiment::paperScale;
using experiment::ScenarioConfig;
using experiment::ScenarioResult;

/// Multi-seed means with 90% confidence intervals.
struct Agg {
  stats::ConfidenceInterval ratio;
  stats::ConfidenceInterval latency;
  stats::ConfidenceInterval avgPeak;
};

inline Agg aggregate(const std::vector<ScenarioResult>& rs) {
  Agg a;
  a.ratio = stats::meanCI(
      experiment::metricAcross(rs, &ScenarioResult::deliveryRatio));
  a.latency =
      stats::meanCI(experiment::metricAcross(rs, &ScenarioResult::avgLatency));
  a.avgPeak = stats::meanCI(
      experiment::metricAcross(rs, &ScenarioResult::avgPeakStorage));
  return a;
}

/// Reads one "<key>:  <n> kB" line from /proc/self/status; 0 if absent
/// (non-Linux platforms — the scale bench then skips its memory asserts).
inline std::size_t procStatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t keyLen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, keyLen) == 0 && line[keyLen] == ':') {
      kb = std::strtoull(line + keyLen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Peak resident set size of this process so far (VmHWM).
inline std::size_t peakRssBytes() { return procStatusBytes("VmHWM"); }
/// Current resident set size (VmRSS).
inline std::size_t currentRssBytes() { return procStatusBytes("VmRSS"); }

/// The host and build a bench ran on, as one JSON object: usable cores,
/// CPU model, compiler, and whether asserts are compiled out (NDEBUG) and
/// the optimizer ran (__OPTIMIZE__).
inline std::string hostJson() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) == 0 && colon != nullptr) {
        const char* name = colon + 1 + std::strspn(colon + 1, " \t");
        cpu.assign(name, std::strcspn(name, "\"\\\n"));
        break;
      }
    }
    std::fclose(f);
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned nproc = sched_getaffinity(0, sizeof set, &set) == 0
                             ? static_cast<unsigned>(CPU_COUNT(&set))
                             : std::thread::hardware_concurrency();
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimize = true;
#else
  const bool optimize = false;
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu_model\": \"%s\", "
                "\"compiler\": \"%s\", \"ndebug\": %s, \"optimize\": %s}",
                nproc, cpu.c_str(), compiler, ndebug ? "true" : "false",
                optimize ? "true" : "false");
  return buf;
}

/// Node-count override shared by the benches: GLR_BENCH_NODES in the
/// environment (at least 2), typically mirrored by a --nodes flag. Returns
/// `fallback` when unset; throws on any other value (see envInt).
inline int benchNodes(int fallback) {
  return experiment::envInt("GLR_BENCH_NODES", fallback, 2);
}
/// The --nodes flag's value, by the GLR_BENCH_NODES rule.
inline int nodesFlag(const char* value) {
  return experiment::parseInt("--nodes", value, 2);
}

/// Runs a bench's `body(argc, argv)`. A rejected integer setting (envInt
/// and parseInt throw std::invalid_argument) ends it like a bad flag: one
/// "<bench>: <message>" line on stderr and exit status 2.
inline int guardedMain(const char* bench, int (*body)(int, char**), int argc,
                       char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s: %s\n", bench, err.what());
    return 2;
  }
}

/// Rescales a scenario to `nodes` at constant node density: the area grows
/// with the population (aspect ratio preserved) and the traffic subset
/// keeps its share. Radio range, speeds and the rest are untouched, so the
/// local picture every node sees — expected degree, contact rate — matches
/// the base config at any population.
inline void scalePopulation(ScenarioConfig& cfg, int nodes) {
  if (nodes == cfg.numNodes) return;
  const double grow =
      static_cast<double>(nodes) / static_cast<double>(cfg.numNodes);
  const double lin = std::sqrt(grow);
  cfg.areaWidth *= lin;
  cfg.areaHeight *= lin;
  const double trafficShare = static_cast<double>(cfg.trafficNodes) /
                              static_cast<double>(cfg.numNodes);
  cfg.trafficNodes = std::max(
      2, std::min(nodes, static_cast<int>(trafficShare * nodes)));
  cfg.numNodes = nodes;
}

/// Names grid cell g in a failure line, e.g. "GLR/manhattan/moderate".
using CellName = std::function<std::string(std::size_t)>;

inline std::string cellTag(const CellName& name, std::size_t g) {
  return name ? " (" + name(g) + ")" : "";
}

/// Quick-mode determinism guard: reruns `grid` x `runs` on 2 threads and
/// requires every result to match `serial`, the same sweep on 1 thread, bit
/// for bit. On a mismatch prints a FATAL line naming the cell and seed and
/// returns false.
inline bool sameOnTwoThreads(
    const std::vector<ScenarioConfig>& grid, int runs,
    const std::vector<std::vector<ScenarioResult>>& serial,
    const CellName& name = {}) {
  experiment::SweepRunner::Options opts;
  opts.threads = 2;
  const auto threaded = experiment::SweepRunner{opts}.run(grid, runs);
  for (std::size_t g = 0; g < serial.size(); ++g) {
    for (std::size_t s = 0; s < serial[g].size(); ++s) {
      if (!experiment::bitIdenticalIgnoringWall(serial[g][s],
                                                threaded[g][s])) {
        std::fprintf(stderr,
                     "FATAL: cell %zu%s seed %zu diverged across thread "
                     "counts — determinism broken\n",
                     g, cellTag(name, g).c_str(), s);
        return false;
      }
    }
  }
  std::printf("determinism: 1-thread and 2-thread runs bit-identical "
              "(%zu cells)\n\n",
              serial.size() * serial.front().size());
  return true;
}

/// Quick-mode event pins: each cell's first seed must execute exactly its
/// pinned event count, or the scenario being measured changed and its
/// numbers are not comparable to history. GLR_QUICK_PIN_DUMP=1 prints the
/// current counts instead, to regenerate the pins; a grid of another size
/// is not checked. On a mismatch prints a FATAL line naming the cell and
/// returns false.
inline bool eventPinsHold(
    const std::vector<std::vector<ScenarioResult>>& results,
    std::span<const std::uint64_t> pins, const CellName& name = {}) {
  if (std::getenv("GLR_QUICK_PIN_DUMP") != nullptr) {
    std::printf("kQuickEventPins = {");
    for (const auto& cell : results) {
      std::printf("%llu, ",
                  static_cast<unsigned long long>(cell.front().eventsExecuted));
    }
    std::printf("}\n\n");
    return true;
  }
  if (results.size() != pins.size()) return true;
  for (std::size_t g = 0; g < results.size(); ++g) {
    if (results[g][0].eventsExecuted != pins[g]) {
      std::fprintf(stderr,
                   "FATAL: cell %zu%s seed 0 executed %llu events, pinned "
                   "%llu — the measured scenario changed\n",
                   g, cellTag(name, g).c_str(),
                   static_cast<unsigned long long>(
                       results[g][0].eventsExecuted),
                   static_cast<unsigned long long>(pins[g]));
      return false;
    }
  }
  std::printf("event pins: all %zu quick cells match the baked event "
              "counts\n\n",
              results.size());
  return true;
}

inline void banner(const char* title, const char* paperRef, int runs) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paperRef);
  std::printf("Scale: %s (GLR_PAPER_SCALE=1 for full scale), %d seed(s), "
              "up to %u thread(s) (GLR_BENCH_THREADS; capped at the cell "
              "count)\n",
              paperScale() ? "paper" : "reduced", runs,
              experiment::defaultThreads());
  std::printf("================================================================\n");
}

}  // namespace glr::bench
