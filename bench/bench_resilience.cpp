/// \file bench_resilience.cpp
/// Adversarial resilience: misbehaving-node sweep. A seeded fraction of the
/// population runs a blackhole — it accepts custody and copies, silently
/// drops every relayed bundle and never acks — and every bundle carries a
/// finite TTL, so time wasted on custody rounds into a sink converts into
/// counted expiry loss. The sweep drives the misbehaving fraction from 0 to
/// 40% for GLR with and without its custody-failure recovery sublayer
/// (suspicion scoring + suspect-avoiding reroute + bounded spray fallback)
/// against the epidemic and spray-and-wait baselines, under two mobility
/// models.
///
/// Every cell is audited for uncounted loss: created must not exceed
/// delivered + still-buffered + still-queued + the sum of counted drop
/// channels (adversary drops, evictions, expiries, MAC losses). A violation
/// is fatal — an adversary that can make bundles vanish without a counter
/// incrementing is a bookkeeping bug, not a result.
///
/// Usage: bench_resilience [--quick] [--out FILE.json]
///   --quick  CI mode: tiny cells, plus a 1-vs-2-thread bit-identical
///            cross-check over the whole grid (adversary assignment,
///            greyhole draws, suspicion state and spray fallbacks under the
///            parallel engine).
///   --out    machine-readable results (default BENCH_resilience.json).

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"

namespace {

using glr::experiment::conservationHolds;
using glr::experiment::Protocol;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

struct Variant {
  const char* name;
  Protocol protocol;
  bool recovery;  // GLR custody-failure detection + spray fallback
};

constexpr Variant kVariants[] = {
    {"GLR", Protocol::kGlr, false},
    {"GLR+rec", Protocol::kGlr, true},
    {"Epidemic", Protocol::kEpidemic, false},
    {"SprayAndWait", Protocol::kSprayAndWait, false},
};

constexpr const char* kMobilities[] = {"waypoint", "direction"};

ScenarioConfig cellConfig(const Variant& v, const char* mobility,
                          double fraction, bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = v.protocol;
  cfg.mobility.model = mobility;
  cfg.glrRecovery = v.recovery;
  if (quick) {
    cfg.numNodes = 16;
    cfg.trafficNodes = 14;
    cfg.radius = 150.0;
    cfg.simTime = 80.0;
    cfg.numMessages = 40;
    cfg.messageTtl = 30.0;
  } else {
    cfg.numNodes = 100;
    cfg.trafficNodes = 75;
    cfg.radius = 115.0;
    cfg.simTime = 400.0;
    cfg.numMessages = 200;
    // Finite lifetime is what makes misbehavior measurable: custody GLR
    // never *loses* a bundle to a blackhole (the sender's cached copy
    // times out and returns to store), it only wastes rounds — the TTL
    // converts wasted rounds into counted expiry loss. Pedestrian speeds
    // keep a blackhole sitting as the geometrically-best neighbor for
    // many custody rounds instead of wandering away within one, so the
    // sweep measures detection-and-reroute rather than mobility luck.
    cfg.speedMin = 0.5;
    cfg.speedMax = 1.0;
    cfg.messageTtl = 28.0;
    // A silent sink's only signature is the missing ack, so the ack
    // timeout is the detector's clock: keep it tight, suspect a hop and
    // start cloning after a single silent custody round, leaving the
    // bundle most of its lifetime for the detour.
    cfg.cacheTimeout = 4.0;
    cfg.glrSuspicionThreshold = 1;
    cfg.glrRecoveryAfterFailures = 1;
    cfg.glrRecoveryFanout = 6;
    cfg.glrRecoveryCooldown = 4.0;
    cfg.glrSuspicionTtl = 1000.0;
  }
  if (fraction > 0.0) {
    cfg.faults.enabled = true;
    cfg.faults.params.adversary.blackholeFraction = fraction;
  }
  return cfg;
}

}  // namespace

int benchMain(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_resilience.json";
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

  const std::vector<double> fractions =
      quick ? std::vector<double>{0.0, 0.25}
            : std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4};
  const int runs = glr::experiment::benchRuns(quick ? 1 : 3);

  std::vector<ScenarioConfig> grid;
  for (const char* mob : kMobilities) {
    for (const Variant& v : kVariants) {
      for (const double f : fractions) {
        grid.push_back(cellConfig(v, mob, f, quick));
      }
    }
  }

  glr::bench::banner("Resilience sweep: misbehaving-node fraction vs. delivery",
                     "custody-failure detection and recovery under blackholes",
                     runs);
  std::printf("%zu cells (%zu mobilities x %zu variants x %zu fractions), "
              "%d seed(s) each\n\n",
              grid.size(), std::size(kMobilities), std::size(kVariants),
              fractions.size(), runs);

  SweepRunner::Options opts;
  opts.progress = true;
  opts.label = "resilience";
  if (quick) opts.threads = 1;  // doubles as the serial determinism baseline
  SweepRunner runner{opts};
  const std::vector<std::vector<ScenarioResult>> results =
      runner.run(grid, runs);

  if (quick) {
    // The grid again on 2 threads, then per-cell event-count pins (seed 0;
    // GLR_QUICK_PIN_DUMP=1 regenerates them).
    static constexpr std::uint64_t kQuickEventPins[] = {
        111646, 34211, 124541, 45664, 21258, 21258, 24942, 22675,
        87731,  62419, 111180, 84551, 14936, 14657, 18990, 16362,
    };
    static_assert(std::size(kQuickEventPins) == 16,
                  "one pin per quick resilience cell");
    if (!glr::bench::sameOnTwoThreads(grid, runs, results) ||
        !glr::bench::eventPinsHold(results, kQuickEventPins)) {
      return 1;
    }
  }

  // The no-uncounted-loss audit, per run, before any aggregation.
  for (std::size_t g = 0; g < results.size(); ++g) {
    for (std::size_t s = 0; s < results[g].size(); ++s) {
      if (!conservationHolds(results[g][s])) {
        std::fprintf(stderr,
                     "FATAL: cell %zu seed %zu lost bundles without a "
                     "counter — uncounted loss under adversaries\n",
                     g, s);
        return 1;
      }
    }
  }
  std::printf("loss accounting: every created bundle in every cell is "
              "delivered, still held, or in a counted drop channel\n\n");

  struct Row {
    double created = 0, delivered = 0, ratio = 0, latency = 0;
    double blackholeDrops = 0, expired = 0;
    double suspicions = 0, skips = 0, activations = 0, sprays = 0;
  };
  std::vector<Row> rows(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double n = static_cast<double>(results[i].size());
    Row& row = rows[i];
    for (const ScenarioResult& r : results[i]) {
      row.created += static_cast<double>(r.created) / n;
      row.delivered += static_cast<double>(r.delivered) / n;
      row.ratio += r.deliveryRatio / n;
      row.latency += r.avgLatency / n;
      row.blackholeDrops += static_cast<double>(r.advBlackholeDrops) / n;
      row.expired += static_cast<double>(r.expiredDrops) / n;
      row.suspicions += static_cast<double>(r.glrSuspicionsRaised) / n;
      row.skips += static_cast<double>(r.glrSuspectSkips) / n;
      row.activations += static_cast<double>(r.glrRecoveryActivations) / n;
      row.sprays += static_cast<double>(r.glrRecoverySprays) / n;
    }
  }

  const std::size_t perMob = std::size(kVariants) * fractions.size();
  for (std::size_t m = 0; m < std::size(kMobilities); ++m) {
    std::printf("mobility: %s\n", kMobilities[m]);
    std::printf("%-13s %9s %9s %9s %9s %9s %9s %9s %8s\n", "variant",
                "bad frac", "delivery", "latency", "bh drops", "expired",
                "suspects", "skips", "sprays");
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      for (std::size_t f = 0; f < fractions.size(); ++f) {
        const std::size_t i = m * perMob + v * fractions.size() + f;
        const Row& row = rows[i];
        std::printf("%-13s %8.0f%% %8.1f%% %8.2fs %9.0f %9.0f %9.0f %9.0f "
                    "%8.0f\n",
                    kVariants[v].name, 100.0 * fractions[f], 100.0 * row.ratio,
                    row.latency, row.blackholeDrops, row.expired,
                    row.suspicions, row.skips, row.sprays);
      }
      std::printf("\n");
    }
  }

  // Headline: the recovery sublayer must actually rescue delivery. At a
  // 20% blackhole population, GLR+rec has to beat plain GLR by >= 1.5x
  // (full mode; the quick grid is too small to carry the claim).
  bool gateChecked = false;
  double worstGain = 0.0;
  if (!quick) {
    std::size_t fIdx = fractions.size();
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      if (fractions[f] == 0.2) fIdx = f;
    }
    if (fIdx < fractions.size()) {
      gateChecked = true;
      worstGain = 1e300;
      for (std::size_t m = 0; m < std::size(kMobilities); ++m) {
        const double plain = rows[m * perMob + 0 * fractions.size() + fIdx].ratio;
        const double rec = rows[m * perMob + 1 * fractions.size() + fIdx].ratio;
        const double gain = plain > 0.0 ? rec / plain : 1e300;
        std::printf("recovery gain @20%% blackholes, %s: %.3f (GLR+rec %.1f%% "
                    "vs GLR %.1f%%)\n",
                    kMobilities[m], gain, 100.0 * rec, 100.0 * plain);
        if (gain < worstGain) worstGain = gain;
      }
      if (worstGain < 1.5) {
        std::fprintf(stderr,
                     "FATAL: recovery gain %.3f < 1.5 at 20%% blackholes — "
                     "the fallback layer is not earning its keep\n",
                     worstGain);
        return 1;
      }
      std::printf("\n");
    }
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"resilience\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"seeds_per_cell\": %d,\n", runs);
  if (gateChecked) {
    std::fprintf(out,
                 "  \"recovery_gain_at_20pct_blackholes\": %.3f,\n"
                 "  \"recovery_gain_floor\": 1.5,\n",
                 worstGain);
  }
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t m = 0; m < std::size(kMobilities); ++m) {
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      for (std::size_t f = 0; f < fractions.size(); ++f) {
        const std::size_t i = m * perMob + v * fractions.size() + f;
        const Row& row = rows[i];
        std::fprintf(
            out,
            "    {\"mobility\": \"%s\", \"variant\": \"%s\", "
            "\"misbehaving_fraction\": %.2f, \"created\": %.1f, "
            "\"delivered\": %.1f, \"delivery_ratio\": %.6f, "
            "\"avg_latency_s\": %.3f, \"blackhole_drops\": %.1f, "
            "\"expired_drops\": %.1f, \"suspicions\": %.1f, "
            "\"suspect_skips\": %.1f, \"recovery_activations\": %.1f, "
            "\"recovery_sprays\": %.1f}%s\n",
            kMobilities[m], kVariants[v].name, fractions[f], row.created,
            row.delivered, row.ratio, row.latency, row.blackholeDrops,
            row.expired, row.suspicions, row.skips, row.activations,
            row.sprays, i + 1 < rows.size() ? "," : "");
      }
    }
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return glr::bench::guardedMain("bench_resilience", benchMain, argc, argv);
}
