#pragma once
/// \file bench_common.hpp
/// Shared support for the sweep benches: the run banner, multi-seed
/// aggregation, resident-memory probes, the host stamp and population
/// rescaling. The paper's figures and tables live in bench_paper.cpp.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
/// environment, typically mirrored by a --nodes flag. Returns `fallback`
/// when unset or unparseable.
inline int benchNodes(int fallback) {
  const char* env = std::getenv("GLR_BENCH_NODES");
  if (env == nullptr || *env == '\0') return fallback;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 2 ? static_cast<int>(v) : fallback;
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

inline void banner(const char* title, const char* paperRef, int runs) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paperRef);
  std::printf("Scale: %s (GLR_PAPER_SCALE=1 for full scale), %d seed(s), "
              "up to %u thread(s) (GLR_BENCH_THREADS; capped at the cell "
              "count)\n",
              paperScale() ? "paper" : "reduced", runs,
              experiment::ThreadPool::defaultThreads());
  std::printf("================================================================\n");
}

}  // namespace glr::bench
