/// \file bench_sim_kernel.cpp
/// Microbenchmark of the event kernel (`glr::sim::Simulator`: allocation-free
/// slab + near and far 4-ary heaps).
///
/// Three microbench shapes cover the kernel's hot paths:
///   * schedule-drain  — bulk scheduling then a full drain (pure push/pop).
///   * timer-churn     — steady state at fixed queue depth: every fired
///                       event reschedules one successor (MAC beacons,
///                       periodic route checks).
///   * cancel-churn    — ack-timer pattern: every fired event schedules a
///                       successor plus a timeout that is cancelled before
///                       it can fire (MAC ACK timeouts, custody timers).
/// Plus an end-to-end `runScenario` timing on the mid-size GLR scenario the
/// determinism regression test pins. Fire order is pinned by
/// tests/test_calendar_queue.cpp (both queues against an ordered-set
/// reference); the committed BENCH_kernel.json keeps the historical A/B
/// against the pre-slab kernel.
///
/// Usage: bench_sim_kernel [--quick] [--out FILE.json]
///   --quick  CI mode: small event counts, skips the end-to-end scenario.
///   --out    write machine-readable results (default BENCH_kernel.json,
///            which holds the historical A/B: pass another path to keep
///            it; see README "Simulation kernel & performance").

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using glr::sim::Simulator;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Capture payload mirroring the protocol stack's custody/cache timers
/// (`[this, key, sentAt]` in glr_agent.cpp): 24 bytes of state that ride in
/// every closure, inside the slab kernel's 48-byte inline budget. This is
/// the case the scenario hot path hits millions of times.
struct TimerPayload {
  long long key;
  double deadline;
  int hop;
};

/// Bulk schedule `n` events at uniform random times, then drain.
void scheduleDrain(std::uint64_t n) {
  Simulator sim;
  glr::sim::Rng rng{42};
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1000.0),
                         static_cast<int>(i & 7)};
    sim.schedule(p.deadline, [p, &sink] {
      sink = sink * 31 + static_cast<std::uint64_t>(p.key);
    });
  }
  sim.run();
}

struct ChurnCtx {
  Simulator& sim;
  glr::sim::Rng& rng;
  std::uint64_t remaining;
  std::uint64_t sink = 0;
};

/// Steady-state churn at queue depth `depth`: each fired event schedules its
/// replacement (periodic beacons / route checks) until `n` events have run.
void timerChurn(std::uint64_t n, std::uint64_t depth) {
  Simulator sim;
  glr::sim::Rng rng{43};
  ChurnCtx ctx{sim, rng, n};
  struct Tick {
    static void fire(ChurnCtx& c, const TimerPayload& p) {
      c.sink = c.sink * 31 + static_cast<std::uint64_t>(p.key);
      if (c.remaining == 0) return;
      --c.remaining;
      const TimerPayload np{p.key + 1, c.rng.uniform(0.0, 1.0), p.hop + 1};
      c.sim.schedule(np.deadline, [&c, np] { fire(c, np); });
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, [&ctx, p] { Tick::fire(ctx, p); });
  }
  sim.run();
}

/// Ack-timer pattern: each fired event schedules one successor plus a
/// near-future timeout it immediately cancels (one cancel per fired event,
/// exercising handle creation and the lazy removal of stale heap records as
/// simulation time passes them).
void cancelChurn(std::uint64_t n, std::uint64_t depth) {
  Simulator sim;
  glr::sim::Rng rng{44};
  ChurnCtx ctx{sim, rng, n};
  struct Tick {
    static void fire(ChurnCtx& c, const TimerPayload& p) {
      c.sink = c.sink * 31 + static_cast<std::uint64_t>(p.key);
      if (c.remaining == 0) return;
      --c.remaining;
      const TimerPayload tp{~p.key, 2.0 + c.rng.uniform(0.0, 1.0), p.hop};
      glr::sim::EventHandle timeout = c.sim.schedule(tp.deadline, [&c, tp] {
        c.sink = c.sink * 31 + static_cast<std::uint64_t>(tp.key);
      });
      const TimerPayload np{p.key + 1, c.rng.uniform(0.0, 1.0), p.hop + 1};
      c.sim.schedule(np.deadline, [&c, np] { fire(c, np); });
      timeout.cancel();
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, [&ctx, p] { Tick::fire(ctx, p); });
  }
  sim.run();
}

struct MicroResult {
  std::string name;
  std::uint64_t events = 0;
  double seconds = 0;

  [[nodiscard]] double mevps() const {
    return static_cast<double>(events) / seconds / 1e6;
  }
};

MicroResult runMicro(const std::string& name, std::uint64_t events,
                     std::uint64_t depth, int reps) {
  MicroResult m;
  m.name = name;
  m.events = events;
  m.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    if (name == "schedule-drain") {
      scheduleDrain(events);
    } else if (name == "timer-churn") {
      timerChurn(events, depth);
    } else {
      cancelChurn(events, depth);
    }
    m.seconds = std::min(m.seconds, secondsSince(t0));
  }
  std::printf("%-16s %9llu events  %7.2f Mev/s\n", m.name.c_str(),
              static_cast<unsigned long long>(m.events), m.mevps());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE.json]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Event-kernel bench: slab + near/far 4-ary heaps (%s mode)\n",
              quick ? "quick" : "full");

  const int reps = quick ? 1 : 3;
  std::vector<MicroResult> micros;
  if (quick) {
    micros.push_back(runMicro("schedule-drain", 100000, 0, reps));
    micros.push_back(runMicro("timer-churn", 100000, 1000, reps));
    micros.push_back(runMicro("cancel-churn", 100000, 1000, reps));
  } else {
    micros.push_back(runMicro("schedule-drain", 100000, 0, reps));
    micros.push_back(runMicro("schedule-drain", 1000000, 0, reps));
    micros.push_back(runMicro("schedule-drain", 10000000, 0, reps));
    micros.push_back(runMicro("timer-churn", 10000000, 1000, reps));
    micros.push_back(runMicro("cancel-churn", 10000000, 1000, reps));
  }

  // End-to-end: the determinism regression test's mid-size GLR scenario.
  glr::experiment::ScenarioResult e2e;
  if (!quick) {
    glr::experiment::ScenarioConfig cfg;
    cfg.protocol = glr::experiment::Protocol::kGlr;
    cfg.simTime = 400.0;
    cfg.numMessages = 200;
    cfg.radius = 100.0;
    cfg.seed = 7;
    double bestWall = 1e300;
    for (int r = 0; r < reps; ++r) {
      auto res = glr::experiment::runScenario(cfg);
      if (res.wallSeconds < bestWall) {
        bestWall = res.wallSeconds;
        e2e = res;
      }
    }
    std::printf("end-to-end GLR   %9llu events  wall %.3fs  %7.2f Mev/s\n",
                static_cast<unsigned long long>(e2e.eventsExecuted),
                e2e.wallSeconds,
                static_cast<double>(e2e.eventsExecuted) / e2e.wallSeconds /
                    1e6);
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sim_kernel\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"slab\": \"slab+generation-handles+4ary-heap+"
                    "inplace-function\",\n");
  std::fprintf(out, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const auto& m = micros[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"slab_mev_per_s\": %.3f}%s\n",
                 m.name.c_str(), static_cast<unsigned long long>(m.events),
                 m.mevps(), i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(out, "  ]");
  if (!quick) {
    std::fprintf(out,
                 ",\n  \"end_to_end\": {\"scenario\": "
                 "\"glr-50n-400s-200msg-seed7\", \"events\": %llu, "
                 "\"wall_seconds\": %.3f, \"mev_per_s\": %.3f}",
                 static_cast<unsigned long long>(e2e.eventsExecuted),
                 e2e.wallSeconds,
                 static_cast<double>(e2e.eventsExecuted) / e2e.wallSeconds /
                     1e6);
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
