/// \file bench_hotpath.cpp
/// End-to-end hot-path profiling harness (see README "Hot path anatomy").
///
/// Times two workloads on the rebuilt network hot path — epoch position
/// cache, batched SINR with the ring-buffer interference history, payload
/// arenas, and the local Delaunay spanner star (one angular sweep per route
/// check; the view is triangulated only when the sweep meets a tie):
///   * golden   — the mid-size GLR scenario the KernelRegression test pins
///                (glr-50n-400s-200msg-seed7); its event count is asserted
///                against the golden, so a speedup can never come from
///                silently simulating something else.
///   * worst    — the slowest mobility-matrix cell (epidemic + manhattan +
///                moderate churn: heaviest buffers, street-constrained
///                contact bursts, churn event load).
///   * sat      — a saturating Poisson load well past the knee (GLR with
///                custody watermark + AIMD window, finite storage): the
///                overload paths — queue rejection, custody refusal and
///                backoff, eviction — at steady state.
/// Each workload runs `repeats` times; the JSON records best-of wall and
/// Mev/s against the frozen PR-2 baseline (BENCH_kernel.json: 0.692 Mev/s
/// end-to-end).
///
/// The binary also installs a counting global allocator and records the
/// steady-state allocation count of a *repeat* golden run (arenas and
/// builder scratch already warm — the number CI pins with --max-allocs to
/// catch allocation regressions on the hot path).
///
/// A fourth cell reruns the golden scenario with the flight recorder on
/// (ScenarioConfig::tracePath set): it reports the tracing overhead
/// relative to the tracing-off golden, pins that observation does not
/// perturb the result (bit-identical modulo traceEventsRecorded), and
/// carries its own allocation budget — the recorder may allocate its fixed
/// setup (ring, stdio buffer, writer thread) but nothing per event.
///
/// Usage: bench_hotpath [--quick] [--out FILE.json] [--max-allocs N]
///                      [--max-allocs-sat N] [--max-allocs-trace N]
///                      [--max-trace-overhead PCT]
///   --quick       CI mode: scaled-down scenarios, 2 repeats (the second,
///                 warm repeat is what --max-allocs measures).
///   --out         machine-readable results (default BENCH_hotpath.json).
///   --max-allocs  exit nonzero if the warm golden run allocates more than
///                 N times (heap-profile smoke; 0 disables).
///   --max-allocs-sat  same budget gate for the warm saturated run, so an
///                 allocation regression on the overload paths (refusal
///                 acks, backoff requeues, evictions) cannot hide behind
///                 the lightly-loaded golden scenario (0 disables).
///   --max-allocs-trace  budget gate for the warm tracing-on golden run
///                 (0 disables). Should sit a small constant above
///                 --max-allocs: the gap is the recorder's fixed setup.
///   --max-trace-overhead  exit nonzero if tracing-on wall time exceeds
///                 tracing-off by more than PCT percent (0 disables; use
///                 on quiet machines — wall ratios are noisy in CI).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "counting_allocator.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::benchsupport::allocCount;

using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

/// The KernelRegression golden event count (commit 2ba2f4a); full mode
/// refuses to report a speedup on a run that diverged from it.
constexpr std::uint64_t kGoldenEvents = 2385279;
/// PR-2 end-to-end baseline on this scenario (BENCH_kernel.json).
constexpr double kBaselineMevPerS = 0.692;

struct Timed {
  ScenarioResult result;
  double bestWall = 0.0;
  double mevPerS = 0.0;
  long long warmAllocs = 0;  // allocation count of the last (warm) repeat
};

Timed timeScenario(const ScenarioConfig& cfg, int repeats) {
  Timed t;
  for (int r = 0; r < repeats; ++r) {
    const long long a0 = allocCount();
    const auto wall0 = std::chrono::steady_clock::now();
    ScenarioResult res = runScenario(cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    t.warmAllocs = allocCount() - a0;
    if (r == 0) {
      t.result = res;
      t.bestWall = wall;
    } else {
      if (!bitIdenticalIgnoringWall(t.result, res)) {
        std::fprintf(stderr,
                     "bench_hotpath: repeat run diverged (determinism bug)\n");
        std::exit(1);
      }
      t.bestWall = std::min(t.bestWall, wall);
    }
  }
  t.mevPerS = static_cast<double>(t.result.eventsExecuted) / t.bestWall / 1e6;
  return t;
}

ScenarioConfig goldenConfig(bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.seed = 7;
  if (quick) {
    cfg.simTime = 120.0;
    cfg.numMessages = 60;
  } else {
    cfg.simTime = 400.0;
    cfg.numMessages = 200;
  }
  return cfg;
}

ScenarioConfig worstMatrixCell(bool quick) {
  // Slowest cell of bench_mobility_matrix: epidemic floods under moderate
  // churn on the Manhattan grid (peak buffers of 400 messages/node).
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.mobility.model = "manhattan";
  cfg.churn = glr::experiment::churnPreset("moderate");
  cfg.radius = quick ? 150.0 : 100.0;
  cfg.numMessages = quick ? 30 : 400;
  cfg.simTime = quick ? 200.0 : 1200.0;
  return cfg;
}

ScenarioConfig saturatedConfig(bool quick) {
  // Poisson offered load well past the saturation knee, with every
  // overload control engaged: finite storage, custody watermark, AIMD
  // custody window. Exercises refusal acks, sender backoff and evictions
  // at steady state.
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
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  long long maxAllocs = 0;
  long long maxAllocsSat = 0;
  long long maxAllocsTrace = 0;
  double maxTraceOverheadPct = 0.0;
  std::string outPath = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--max-allocs") == 0 && i + 1 < argc) {
      maxAllocs = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-allocs-sat") == 0 && i + 1 < argc) {
      maxAllocsSat = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-allocs-trace") == 0 &&
               i + 1 < argc) {
      maxAllocsTrace = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-trace-overhead") == 0 &&
               i + 1 < argc) {
      maxTraceOverheadPct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--max-allocs N] "
                   "[--max-allocs-sat N] [--max-allocs-trace N] "
                   "[--max-trace-overhead PCT]\n",
                   argv[0]);
      return 2;
    }
  }
  const int repeats = quick ? 2 : 3;

  std::printf("hot-path bench (%s mode)\n", quick ? "quick" : "full");

  const auto golden = timeScenario(goldenConfig(quick), repeats);
  std::printf(
      "golden   glr-50n-%.0fs-%dmsg-seed7: %llu events, best %.3f s, "
      "%.3f Mev/s (PR-2 baseline %.3f => %.2fx), warm-run allocs %lld\n",
      goldenConfig(quick).simTime, goldenConfig(quick).numMessages,
      static_cast<unsigned long long>(golden.result.eventsExecuted),
      golden.bestWall, golden.mevPerS, kBaselineMevPerS,
      golden.mevPerS / kBaselineMevPerS, golden.warmAllocs);
  if (!quick && golden.result.eventsExecuted != kGoldenEvents) {
    std::fprintf(stderr,
                 "bench_hotpath: golden scenario executed %llu events, "
                 "expected %llu — results are not comparable\n",
                 static_cast<unsigned long long>(
                     golden.result.eventsExecuted),
                 static_cast<unsigned long long>(kGoldenEvents));
    return 1;
  }

  const auto worst = timeScenario(worstMatrixCell(quick), repeats);
  std::printf(
      "worst    epidemic/manhattan/moderate: %llu events, best %.3f s, "
      "%.3f Mev/s, warm-run allocs %lld\n",
      static_cast<unsigned long long>(worst.result.eventsExecuted),
      worst.bestWall, worst.mevPerS, worst.warmAllocs);

  // Tracing-on golden: same scenario with the flight recorder armed. The
  // trace file lands next to the JSON and is removed afterwards — the cell
  // measures recording cost, not disk archaeology.
  const std::string tracePath = "bench_hotpath_trace.bin";
  ScenarioConfig tracedCfg = goldenConfig(quick);
  tracedCfg.tracePath = tracePath;
  const auto traced = timeScenario(tracedCfg, repeats);
  std::remove(tracePath.c_str());
  {
    ScenarioResult masked = traced.result;
    masked.traceEventsRecorded = 0;
    if (!bitIdenticalIgnoringWall(masked, golden.result)) {
      std::fprintf(stderr,
                   "bench_hotpath: tracing-on golden diverged from "
                   "tracing-off — observation perturbed the simulation\n");
      return 1;
    }
  }
  const double traceOverheadPct =
      (traced.bestWall / golden.bestWall - 1.0) * 100.0;
  std::printf(
      "traced   golden + flight recorder: %llu events, %llu records, "
      "best %.3f s (overhead %+.1f%%), %.3f Mev/s, warm-run allocs %lld\n",
      static_cast<unsigned long long>(traced.result.eventsExecuted),
      static_cast<unsigned long long>(traced.result.traceEventsRecorded),
      traced.bestWall, traceOverheadPct, traced.mevPerS, traced.warmAllocs);

  const auto sat = timeScenario(saturatedConfig(quick), repeats);
  std::printf(
      "sat      glr+ctl/poisson-%.0fmsg-s: %llu events, %zu offered, "
      "%llu rejects, %llu evictions, %llu refusals, best %.3f s, "
      "%.3f Mev/s, warm-run allocs %lld\n",
      saturatedConfig(quick).traffic.rate,
      static_cast<unsigned long long>(sat.result.eventsExecuted),
      sat.result.created,
      static_cast<unsigned long long>(sat.result.sendRejects),
      static_cast<unsigned long long>(sat.result.bufferEvictions),
      static_cast<unsigned long long>(sat.result.custodyRefusals),
      sat.bestWall, sat.mevPerS, sat.warmAllocs);

  if (maxAllocs > 0 && golden.warmAllocs > maxAllocs) {
    std::fprintf(stderr,
                 "bench_hotpath: warm golden run allocated %lld times, "
                 "budget is %lld — hot-path allocation regression\n",
                 golden.warmAllocs, maxAllocs);
    return 1;
  }
  if (maxAllocsSat > 0 && sat.warmAllocs > maxAllocsSat) {
    std::fprintf(stderr,
                 "bench_hotpath: warm saturated run allocated %lld times, "
                 "budget is %lld — overload-path allocation regression\n",
                 sat.warmAllocs, maxAllocsSat);
    return 1;
  }
  if (maxAllocsTrace > 0 && traced.warmAllocs > maxAllocsTrace) {
    std::fprintf(stderr,
                 "bench_hotpath: warm tracing-on run allocated %lld times, "
                 "budget is %lld — the record() path must not allocate\n",
                 traced.warmAllocs, maxAllocsTrace);
    return 1;
  }
  if (maxTraceOverheadPct > 0.0 && traceOverheadPct > maxTraceOverheadPct) {
    std::fprintf(stderr,
                 "bench_hotpath: tracing overhead %.1f%% exceeds the "
                 "%.1f%% budget\n",
                 traceOverheadPct, maxTraceOverheadPct);
    return 1;
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"hotpath\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out,
               "  \"golden\": {\"scenario\": \"glr-50n-%.0fs-%dmsg-seed7\", "
               "\"events\": %llu, \"best_wall_seconds\": %.3f, "
               "\"mev_per_s\": %.3f, \"baseline_mev_per_s\": %.3f, "
               "\"speedup_vs_pr2\": %.3f, \"warm_run_allocs\": %lld},\n",
               goldenConfig(quick).simTime, goldenConfig(quick).numMessages,
               static_cast<unsigned long long>(golden.result.eventsExecuted),
               golden.bestWall, golden.mevPerS, kBaselineMevPerS,
               golden.mevPerS / kBaselineMevPerS, golden.warmAllocs);
  std::fprintf(out,
               "  \"matrix_worst\": {\"cell\": "
               "\"Epidemic/manhattan/moderate\", \"events\": %llu, "
               "\"best_wall_seconds\": %.3f, \"mev_per_s\": %.3f, "
               "\"warm_run_allocs\": %lld},\n",
               static_cast<unsigned long long>(worst.result.eventsExecuted),
               worst.bestWall, worst.mevPerS, worst.warmAllocs);
  std::fprintf(out,
               "  \"traced_golden\": {\"scenario\": \"golden + flight "
               "recorder\", \"events\": %llu, \"trace_records\": %llu, "
               "\"best_wall_seconds\": %.3f, \"overhead_pct\": %.1f, "
               "\"mev_per_s\": %.3f, \"warm_run_allocs\": %lld},\n",
               static_cast<unsigned long long>(traced.result.eventsExecuted),
               static_cast<unsigned long long>(
                   traced.result.traceEventsRecorded),
               traced.bestWall, traceOverheadPct, traced.mevPerS,
               traced.warmAllocs);
  std::fprintf(out,
               "  \"saturated\": {\"cell\": \"GLR+ctl/poisson-%.0fmsg-s\", "
               "\"events\": %llu, \"offered\": %zu, \"send_rejects\": %llu, "
               "\"buffer_evictions\": %llu, \"custody_refusals\": %llu, "
               "\"best_wall_seconds\": %.3f, \"mev_per_s\": %.3f, "
               "\"warm_run_allocs\": %lld}\n",
               saturatedConfig(quick).traffic.rate,
               static_cast<unsigned long long>(sat.result.eventsExecuted),
               sat.result.created,
               static_cast<unsigned long long>(sat.result.sendRejects),
               static_cast<unsigned long long>(sat.result.bufferEvictions),
               static_cast<unsigned long long>(sat.result.custodyRefusals),
               sat.bestWall, sat.mevPerS, sat.warmAllocs);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
