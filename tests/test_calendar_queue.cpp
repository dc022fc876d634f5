// Tests for the kernel's queue modes: the calendar wheel must fire the
// exact event sequence the 4-ary heap fires — same (time, seq) tie-break,
// same cancellation semantics — across unit workloads (including a
// pre-reserved wheel whose buckets are long enough to be sorted), randomized
// schedule/cancel interleavings (where both modes must also match an
// ordered-set reference, including scripts that straddle the near/far tier
// split and a cancel-heavy one that keeps the compaction sweep busy),
// resize-heavy loads, a same-time burst, and the full
// KernelRegression golden scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "closure_sink.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::sim::CalendarQueue;
using glr::sim::EventAux;
using glr::sim::EventHandle;
using glr::test::ClosureSink;
using glr::sim::EventKey;
using glr::sim::Rng;
using glr::sim::Simulator;

TEST(CalendarQueue, PopsGlobalMinimumAcrossResizes) {
  CalendarQueue q;
  Rng rng{42};
  std::vector<EventKey> keys;
  for (std::uint64_t s = 0; s < 100000; ++s) {
    const double t = rng.uniform(0.0, 5000.0);
    keys.push_back({std::bit_cast<std::uint64_t>(t), s});
    q.push(keys.back(), {static_cast<std::uint32_t>(s), 0});
  }
  std::sort(keys.begin(), keys.end(), [](const EventKey& a, const EventKey& b) {
    return glr::sim::earlierKey(a, b);
  });
  for (const EventKey& expect : keys) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.topKey().timeBits, expect.timeBits);
    EXPECT_EQ(q.topKey().seq, expect.seq);
    q.popTop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SparseFarFutureTailStillOrders) {
  CalendarQueue q;
  // A tight cluster now plus a handful of events years of bucket-widths
  // away exercises the direct-search fallback and the day clamp.
  std::uint64_t seq = 0;
  std::vector<double> times{0.001, 0.002, 0.0025, 1.0e6, 2.0e9, 3.0e15};
  for (double t : times) {
    q.push({std::bit_cast<std::uint64_t>(t), seq}, {0, 0});
    ++seq;
  }
  std::vector<double> popped;
  while (!q.empty()) {
    popped.push_back(std::bit_cast<double>(q.topKey().timeBits));
    q.popTop();
  }
  EXPECT_EQ(popped, times);
}

TEST(CalendarQueue, PreReservedWheelDrainsLongBucketsInOrder) {
  // A pre-reserved wheel keeps its 1 ms starting width until its first
  // recalibration, a queue turnover later: 4,000 records due within 4 ms
  // share four days, about 1,000 per bucket, so each bucket is sorted when
  // the cursor reaches it. Half the pops push a successor up to 2 ms
  // later, often into the day being drained, where it may come before
  // the sorted run's head.
  CalendarQueue q;
  q.reserve(8000);
  Rng rng{7};
  std::set<std::pair<std::uint64_t, std::uint64_t>> reference;
  std::uint64_t seq = 0;
  const auto push = [&](double t) {
    const EventKey key{std::bit_cast<std::uint64_t>(t), seq++};
    q.push(key, {static_cast<std::uint32_t>(key.seq), 0});
    reference.emplace(key.timeBits, key.seq);
  };
  for (int i = 0; i < 4000; ++i) push(rng.uniform(0.0, 0.004));
  while (!reference.empty()) {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.topKey().timeBits, reference.begin()->first);
    ASSERT_EQ(q.topKey().seq, reference.begin()->second);
    const double now = std::bit_cast<double>(reference.begin()->first);
    q.popTop();
    reference.erase(reference.begin());
    if (seq < 8000 && rng.below(2) == 0) push(now + rng.uniform(0.0, 0.002));
  }
  EXPECT_TRUE(q.empty());
}

TEST(SimulatorCalendar, RunsEventsInTimeOrderWithInsertionTieBreak) {
  Simulator sim;
  sim.setQueueMode(Simulator::QueueMode::kCalendar);
  ClosureSink events{sim};
  std::vector<int> order;
  events.schedule(3.0, [&] { order.push_back(30); });
  events.schedule(1.0, [&] { order.push_back(10); });
  for (int i = 0; i < 5; ++i) {
    events.schedule(2.0, [&order, i] { order.push_back(20 + i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 21, 22, 23, 24, 30}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorCalendar, SwitchRequiresEmptyQueue) {
  Simulator sim;
  ClosureSink events{sim};
  events.schedule(1.0, [] {});
  EXPECT_THROW(sim.setQueueMode(Simulator::QueueMode::kCalendar),
               std::logic_error);
  sim.run();
  EXPECT_NO_THROW(sim.setQueueMode(Simulator::QueueMode::kCalendar));
  EXPECT_EQ(sim.queueMode(), Simulator::QueueMode::kCalendar);
}

/// Picks a random event among the `scheduled` so far; one that already
/// fired or was cancelled makes the cancel a no-op.
std::size_t randomEarlier(Rng& rng, std::size_t scheduled) {
  return static_cast<std::size_t>(rng.below(scheduled));
}

/// A randomized schedule/cancel/horizon script: `rounds` rounds of
/// `perRound` events at absolute times drawn by `timeIn`, each followed by
/// a cancel with probability `cancelsIn4` / 4 of the event `victimOf`
/// picks, and each round closed by run(until).
struct Script {
  const char* name;
  int rounds;
  int perRound;
  double (*timeIn)(Rng& rng, int round);
  double (*untilOf)(int round);
  std::uint64_t cancelsIn4 = 1;
  std::size_t (*victimOf)(Rng& rng, std::size_t scheduled) = randomEarlier;
};

/// Coarse times in 10 s rounds, plus a rare far-future event. Only the
/// delay-0 events land in the near tier, and they are always the earliest.
const Script kCoarse{
    "coarse", 10, 200,
    [](Rng& rng, int round) {
      // Coarse-grained times force plenty of exact ties; the occasional
      // far-future event exercises the wheel's overflow path.
      double t = 10.0 * round + 0.25 * static_cast<double>(rng.below(60));
      if (rng.below(50) == 0) t += 1.0e4;
      return t;
    },
    [](int round) { return 10.0 + 10.0 * round; }};

/// Times are whole ticks of kNearHorizon / 8, each computed by one multiply,
/// so equal tick counts are equal doubles and ties across tiers are common.
constexpr double kTick = Simulator::kNearHorizon / 8.0;
/// Rounds of 5 ticks, shorter than the near horizon.
constexpr int kStraddleRoundTicks = 5;

/// Delays of 0, of 1-16 ticks (straddling the horizon at 8) and of 0.5-10 s
/// on a grid of 8 ticks, in rounds shorter than the horizon: far records
/// come due while later near records wait, and equal times sit in both
/// tiers.
const Script kStraddle{
    "straddle", 400, 20,
    [](Rng& rng, int round) {
      std::uint64_t delay = 0;
      switch (rng.below(3)) {
        case 1: delay = 1 + rng.below(16); break;
        case 2: delay = 8 * (10 + rng.below(191)); break;
        default: break;
      }
      const std::uint64_t start = kStraddleRoundTicks * round;
      return kTick * static_cast<double>(start + delay);
    },
    [](int round) {
      return kTick * static_cast<double>(kStraddleRoundTicks * (round + 1));
    }};

/// Cancel-heavy: about 3 of 4 events are cancelled as soon as they are
/// scheduled, mostly while due 0.25-10 s ahead in the far tier, so stale
/// records outnumber live ones and the kernel's compaction sweep runs
/// through both tiers many times per round.
const Script kCancelHeavy{
    "cancel-heavy", 40, 200,
    [](Rng& rng, int round) {
      return 1.0 * round + 0.25 * static_cast<double>(rng.below(41));
    },
    [](int round) { return 1.0 + 1.0 * round; },
    3,
    [](Rng& /*rng*/, std::size_t scheduled) { return scheduled - 1; }};

/// Runs `script` against one queue mode and returns the exact firing log.
std::vector<std::pair<double, int>> runScript(bool calendar,
                                              const Script& script,
                                              std::uint64_t seed) {
  Simulator sim;
  if (calendar) sim.setQueueMode(Simulator::QueueMode::kCalendar);
  ClosureSink events{sim};
  Rng rng{seed};
  std::vector<std::pair<double, int>> fired;
  std::vector<EventHandle> handles;
  int nextId = 0;
  for (int round = 0; round < script.rounds; ++round) {
    for (int k = 0; k < script.perRound; ++k) {
      const double t = script.timeIn(rng, round);
      const int id = nextId++;
      handles.push_back(events.scheduleAt(
          t, [&fired, &sim, id] { fired.emplace_back(sim.now(), id); }));
      if (rng.below(4) < script.cancelsIn4) {
        handles[script.victimOf(rng, handles.size())].cancel();
      }
    }
    sim.run(script.untilOf(round));
  }
  sim.run();
  fired.emplace_back(static_cast<double>(sim.eventsExecuted()), -1);
  return fired;
}

/// The same script run on an ordered set of (time, id) keys: the kernel's
/// contract stated directly — earliest time first, ties in scheduling
/// order, a cancelled event never fires, a horizon fires events at it.
std::vector<std::pair<double, int>> runScriptReference(const Script& script,
                                                       std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::pair<double, int>> fired;
  std::set<std::pair<double, int>> pending;
  std::vector<double> timeOf;  // by id
  const auto runUntil = [&](double until) {
    while (!pending.empty() && pending.begin()->first <= until) {
      fired.push_back(*pending.begin());
      pending.erase(pending.begin());
    }
  };
  for (int round = 0; round < script.rounds; ++round) {
    for (int k = 0; k < script.perRound; ++k) {
      const double t = script.timeIn(rng, round);
      const int id = static_cast<int>(timeOf.size());
      timeOf.push_back(t);
      pending.emplace(t, id);
      if (rng.below(4) < script.cancelsIn4) {
        const std::size_t victim = script.victimOf(rng, timeOf.size());
        pending.erase({timeOf[victim], static_cast<int>(victim)});
      }
    }
    runUntil(script.untilOf(round));
  }
  runUntil(std::numeric_limits<double>::infinity());
  fired.emplace_back(static_cast<double>(fired.size()), -1);
  return fired;
}

TEST(SimulatorCalendar, HeapAndCalendarMatchReferenceOnScheduleCancelScripts) {
  for (const Script* script : {&kCoarse, &kStraddle, &kCancelHeavy}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto want = runScriptReference(*script, seed);
      for (const bool calendar : {false, true}) {
        const auto got = runScript(calendar, *script, seed);
        ASSERT_EQ(got.size(), want.size())
            << (calendar ? "calendar" : "heap") << " " << script->name
            << " seed " << seed;
        const auto at = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_TRUE(at.first == got.end())
            << (calendar ? "calendar" : "heap") << " " << script->name
            << " seed " << seed << " first differs at firing "
            << (at.first - got.begin());
      }
    }
  }
}

// A burst of events at one time must drain in O(n log n) in either mode:
// a calendar wheel would put the whole burst in one bucket and min-scan it
// per pop (quadratic; over 40 s for this burst in a Release build).
TEST(SimulatorCalendar, SameTimeBurstDrainsFastInEitherMode) {
  constexpr int kBurst = 200000;
  for (const bool calendar : {false, true}) {
    Simulator sim;
    if (calendar) sim.setQueueMode(Simulator::QueueMode::kCalendar);
    ClosureSink events{sim};
    std::uint64_t fired = 0;
    for (int i = 0; i < kBurst; ++i) {
      events.schedule(0.0, [&fired] { ++fired; });
    }
    sim.setWallDeadline(5.0);
    EXPECT_NO_THROW(sim.run()) << (calendar ? "calendar" : "heap");
    EXPECT_EQ(fired, static_cast<std::uint64_t>(kBurst));
  }
}

// The tentpole pin: the KernelRegression golden scenario, run through the
// calendar queue, must reproduce the heap's ScenarioResult bit for bit.
TEST(SimulatorCalendar, KernelRegressionGoldenIsBitIdenticalToHeap) {
  glr::experiment::ScenarioConfig cfg;
  cfg.protocol = glr::experiment::Protocol::kGlr;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.radius = 100.0;
  cfg.seed = 7;
  const auto heap = glr::experiment::runScenario(cfg);
  cfg.kernelQueue = glr::experiment::KernelQueue::kCalendar;
  const auto cal = glr::experiment::runScenario(cfg);
  EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(heap, cal));
  // Anchor both against the pinned golden, not just each other.
  EXPECT_EQ(heap.eventsExecuted, 2385279u);
  EXPECT_EQ(cal.eventsExecuted, 2385279u);
}

}  // namespace
