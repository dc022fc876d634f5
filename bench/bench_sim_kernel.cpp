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
/// Whole-scenario throughput is glrbench's to measure (benchmark/). Fire
/// order is pinned by tests/test_calendar_queue.cpp (both queues against an
/// ordered-set reference); the committed BENCH_kernel.json keeps the
/// historical A/B against the pre-slab kernel.
///
/// Usage: bench_sim_kernel [--quick] [--out FILE.json]
///   --quick  CI mode: small event counts.
///   --out    write machine-readable results, stamped with the host
///            (default kernel.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using glr::sim::EventDesc;
using glr::sim::Simulator;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Payload mirroring the protocol stack's custody timers (copy key,
/// deadline and next hop in glr_agent.cpp). It rides in each event's
/// descriptor, as a custody timer's does: key in u0, hop in i0, deadline
/// in f0. This is the case the scenario hot path hits millions of times.
EventDesc timerDesc(std::uint64_t key, double deadline, int hop) {
  return {.i0 = hop, .u0 = key, .f0 = deadline};
}

/// Folds the key of every fired event into `acc`.
struct DrainSink final : glr::sim::EventSink {
  std::uint64_t acc = 0;
  void onEvent(const EventDesc& d) override { acc = acc * 31 + d.u0; }
};

/// Bulk schedule `n` events at uniform random times, then drain.
void scheduleDrain(std::uint64_t n) {
  Simulator sim;
  glr::sim::Rng rng{42};
  DrainSink sink;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double deadline = rng.uniform(0.0, 1000.0);
    sim.schedule(deadline, sink,
                 timerDesc(i, deadline, static_cast<int>(i & 7)));
  }
  sim.run();
}

/// Steady-state churn: each fired event schedules its successor (periodic
/// beacons / route checks) until `remaining` events have run. With
/// `cancelTimeouts`, each also schedules a near-future timeout (kind 1)
/// that it cancels at once (MAC ACK timeouts, custody timers).
struct ChurnSink final : glr::sim::EventSink {
  Simulator& sim;
  glr::sim::Rng& rng;
  std::uint64_t remaining;
  bool cancelTimeouts;
  std::uint64_t acc = 0;

  ChurnSink(Simulator& s, glr::sim::Rng& r, std::uint64_t n, bool cancel)
      : sim(s), rng(r), remaining(n), cancelTimeouts(cancel) {}

  void onEvent(const EventDesc& d) override {
    acc = acc * 31 + d.u0;
    if (d.kind == 1 || remaining == 0) return;
    --remaining;
    glr::sim::EventHandle timeout;
    if (cancelTimeouts) {
      EventDesc t = timerDesc(~d.u0, 2.0 + rng.uniform(0.0, 1.0), d.i0);
      t.kind = 1;
      timeout = sim.schedule(t.f0, *this, t);
    }
    const double deadline = rng.uniform(0.0, 1.0);
    sim.schedule(deadline, *this, timerDesc(d.u0 + 1, deadline, d.i0 + 1));
    timeout.cancel();
  }
};

/// Steady-state churn at queue depth `depth` until `n` events have run.
/// The cancel variant exercises handle creation and the lazy removal of
/// stale heap records as simulation time passes them.
void churn(std::uint64_t n, std::uint64_t depth, std::uint64_t seed,
           bool cancelTimeouts) {
  Simulator sim;
  glr::sim::Rng rng{seed};
  ChurnSink sink{sim, rng, n, cancelTimeouts};
  for (std::uint64_t i = 0; i < depth; ++i) {
    const double deadline = rng.uniform(0.0, 1.0);
    sim.schedule(deadline, sink, timerDesc(i, deadline, 0));
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
      churn(events, depth, 43, /*cancelTimeouts=*/false);
    } else {
      churn(events, depth, 44, /*cancelTimeouts=*/true);
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
  std::string outPath = "kernel.json";
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

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sim_kernel\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"host\": %s,\n", glr::bench::hostJson().c_str());
  std::fprintf(out, "  \"slab\": \"slab+generation-handles+4ary-heap+"
                    "sink-descriptor\",\n");
  std::fprintf(out, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const auto& m = micros[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"slab_mev_per_s\": %.3f}%s\n",
                 m.name.c_str(), static_cast<unsigned long long>(m.events),
                 m.mevps(), i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
