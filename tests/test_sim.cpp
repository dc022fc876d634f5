// Tests for the discrete-event kernel, its ring FIFO and the deterministic
// RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "closure_sink.hpp"
#include "experiment/scenario.hpp"
#include "sim/ring_deque.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::sim::EventHandle;
using glr::sim::RingDeque;
using glr::sim::Rng;
using glr::sim::Simulator;
using glr::test::ClosureSink;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  ClosureSink events{sim};
  std::vector<int> order;
  events.schedule(3.0, [&] { order.push_back(3); });
  events.schedule(1.0, [&] { order.push_back(1); });
  events.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  ClosureSink events{sim};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    events.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  events.schedule(1.0, [&] { ++fired; });
  events.schedule(2.0, [&] { ++fired; });
  events.schedule(5.0, [&] { ++fired; });
  const auto ran = sim.run(2.0);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  // Event exactly at the horizon fires; the later one remains.
  EXPECT_TRUE(sim.hasPending());
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  ClosureSink events{sim};
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) events.schedule(1.5, tick);
  };
  events.schedule(0.0, tick);
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(times[i], 1.5 * static_cast<double>(i));
  }
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  EventHandle h = events.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  EventHandle h = events.schedule(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  events.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  events.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.hasPending());
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  ClosureSink events{sim};
  events.schedule(5.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_THROW(events.scheduleAt(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, StepExecutesExactlyN) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  for (int i = 0; i < 5; ++i) events.schedule(i, [&] { ++fired; });
  EXPECT_EQ(sim.step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.step(10), 3u);
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, AdvancesToHorizonWhenQueueEmpty) {
  Simulator sim;
  sim.run(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunWithHorizonInPastFiresNothing) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  events.schedule(5.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  events.schedule(1.0, [&] { ++fired; });  // pending at t = 6
  EXPECT_EQ(sim.run(2.0), 0u);  // horizon already behind now: no-op
  EXPECT_EQ(sim.run(-1.0), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepHonorsStop) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  events.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  events.schedule(2.0, [&] { ++fired; });
  events.schedule(3.0, [&] { ++fired; });
  // stop() from inside an event ends the step() batch early, exactly like
  // run(); the remaining events stay queued.
  EXPECT_EQ(sim.step(3), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.hasPending());
  // A fresh step() clears the latch (same contract as run()).
  EXPECT_EQ(sim.step(3), 2u);
  EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------------
// Generation-based EventHandle semantics: handles are cheap value tokens that
// must stay inert across cancellation, firing, and slab slot reuse.
// ---------------------------------------------------------------------------

TEST(EventHandle, IsTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<EventHandle>);
  SUCCEED();
}

TEST(EventHandle, DoubleCancelIsNoop) {
  Simulator sim;
  ClosureSink events{sim};
  int fired = 0;
  EventHandle h = events.schedule(1.0, [&] { ++fired; });
  EventHandle copy = h;  // value token: copies target the same event
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(copy.pending());
  h.cancel();
  copy.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventHandle, CancelledHandleOutlivingReusedSlotIsInert) {
  Simulator sim;
  ClosureSink events{sim};
  int oldFired = 0;
  int newFired = 0;
  EventHandle stale = events.schedule(1.0, [&] { ++oldFired; });
  stale.cancel();  // frees the slot: the next schedule reuses it
  EventHandle fresh = events.schedule(2.0, [&] { ++newFired; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // must NOT kill the new occupant of the recycled slot
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(oldFired, 0);
  EXPECT_EQ(newFired, 1);
}

TEST(EventHandle, FiredHandleOutlivingReusedSlotIsInert) {
  Simulator sim;
  ClosureSink events{sim};
  int firstFired = 0;
  EventHandle stale = events.schedule(1.0, [&] { ++firstFired; });
  sim.run();
  EXPECT_EQ(firstFired, 1);

  int secondFired = 0;
  EventHandle fresh = events.schedule(1.0, [&] { ++secondFired; });
  EXPECT_FALSE(stale.pending());
  stale.cancel();  // stale generation: the recycled slot must be untouched
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(secondFired, 1);
}

TEST(EventHandle, CancelFromInsideOwnCallbackIsNoop) {
  Simulator sim;
  ClosureSink events{sim};
  int other = 0;
  EventHandle self;
  self = events.schedule(1.0, [&] {
    // By firing time the slot is already released; a self-cancel must not
    // disturb whatever reuses it.
    self.cancel();
    events.schedule(1.0, [&] { ++other; });
  });
  sim.run();
  EXPECT_EQ(other, 1);
}

TEST(EventHandle, CancellationStressChurn) {
  // Heavy schedule/cancel churn with slot reuse: every event either fires
  // exactly once or was cancelled, never both, across enough rounds that the
  // slab free list cycles thousands of times.
  Simulator sim;
  ClosureSink events{sim};
  Rng rng{2024};
  constexpr int kEvents = 20000;
  std::vector<int> fired(kEvents, 0);
  std::vector<EventHandle> handles;
  std::vector<bool> cancelled(kEvents, false);
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(
        events.schedule(rng.uniform(0.0, 50.0), [&fired, i] { ++fired[i]; }));
    // Cancel a random earlier (possibly already cancelled) event now and
    // then, and sometimes the one just scheduled.
    if (rng.bernoulli(0.4)) {
      const auto victim = static_cast<int>(rng.below(i + 1));
      handles[static_cast<std::size_t>(victim)].cancel();
      cancelled[static_cast<std::size_t>(victim)] = true;
    }
  }
  sim.run();
  int firedCount = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (cancelled[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)], 0) << "event " << i;
    } else {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1) << "event " << i;
    }
    firedCount += fired[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(sim.eventsExecuted(), static_cast<std::uint64_t>(firedCount));
  EXPECT_EQ(sim.queueSize(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel regression: each pinned cell must produce exactly the recorded
// ScenarioResult, field for field. The GLR paper cell (glr-50n-400s-200msg,
// seed 7) holds the numbers the pre-slab kernel (shared_ptr + std::function
// + priority_queue) produced at commit 2ba2f4a, widened to every compared
// field at commit 375ba33; a divergence there means the kernel changed event
// ordering or cancellation semantics. Every knob added since (diversity,
// overload, adversary, tracing) is pinned to that cell by its own test
// proving its default leaves the config unchanged. The other rows, recorded
// at commit d75e9e9, pin each baseline protocol and GLR's overload and
// adversary machinery, so that every GLR_PROTOCOL_COUNTERS field is non-zero
// in at least one row: a counter harvested into the wrong slot fails here.
// ---------------------------------------------------------------------------

struct PinnedCell {
  const char* name;
  glr::experiment::ScenarioConfig (*config)();
  glr::experiment::ScenarioResult golden;
};

/// 30 nodes, 200 s, 100 paper-workload messages at 150 m, seed 7.
glr::experiment::ScenarioConfig smallCell(glr::experiment::Protocol p) {
  glr::experiment::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 200.0;
  cfg.numMessages = 100;
  cfg.radius = 150.0;
  cfg.seed = 7;
  return cfg;
}

TEST(KernelRegression, PinnedCellsAreBitIdentical) {
  using glr::experiment::Protocol;
  using glr::experiment::ScenarioConfig;
  const PinnedCell cells[] = {
      {"GLR paper cell",
       [] {
         ScenarioConfig cfg;
         cfg.protocol = Protocol::kGlr;
         cfg.simTime = 400.0;
         cfg.numMessages = 200;
         cfg.radius = 100.0;
         cfg.seed = 7;
         return cfg;
       },
       {.created = 200, .delivered = 198,
        .deliveryRatio = 0.98999999999999999,
        .avgLatency = 45.265223520228908, .avgHops = 55.247474747474747,
        .maxPeakStorage = 47, .avgPeakStorage = 20.920000000000005,
        .macDataTx = 130109, .macQueueDrops = 0, .macRetryDrops = 153,
        .macRadioDownDrops = 0, .macAckTimeouts = 2404,
        .macBusyDeferrals = 1333087, .collisions = 3044,
        .airTimeSeconds = 543.48595200198486, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 50662,
        .glrDataReceived = 50526, .glrDuplicatesDropped = 9,
        .glrCustodyAcksSent = 50526, .glrCustodyAcksReceived = 50510,
        .glrCacheTimeouts = 15, .glrTxFailures = 137,
        .glrFaceTransitions = 5902, .perturbations = 0, .sendRejects = 0,
        .bufferEvictions = 0, .custodyRefusals = 0,
        .glrSuspicionsRaised = 0, .glrSuspectSkips = 0,
        .glrRecoveryActivations = 0, .glrRecoverySprays = 0,
        .expiredDrops = 0, .advBlackholeDrops = 0, .advGreyholeDrops = 0,
        .advSelfishRefusals = 0, .advFlapTransitions = 0,
        .bufferedAtEnd = 37, .macQueueAtEnd = 1,
        .latencyP50 = 19.269018118960165,
        .latencyP90 = 155.32508624144975,
        .latencyP99 = 221.04039467876257,
        .latencyMin = 0.0098459999999960246,
        .latencyMax = 251.40783978792615,
        .latencyStddev = 59.428553089554349, .traceEventsRecorded = 0,
        .eventsExecuted = 2385279}},
      // Buffer evictions, TTL expiry and MAC send refusals.
      {"Epidemic, storage 20, TTL 60 s, queue 4",
       [] {
         ScenarioConfig cfg = smallCell(Protocol::kEpidemic);
         cfg.storageLimit = 20;
         cfg.messageTtl = 60.0;
         cfg.queueLimit = 4;
         return cfg;
       },
       {.created = 100, .delivered = 80,
        .deliveryRatio = 0.80000000000000004,
        .avgLatency = 23.659303026716422, .avgHops = 6.0125000000000002,
        .maxPeakStorage = 20, .avgPeakStorage = 20, .macDataTx = 22018,
        .macQueueDrops = 2285, .macRetryDrops = 209,
        .macRadioDownDrops = 0, .macAckTimeouts = 2027,
        .macBusyDeferrals = 66016, .collisions = 509,
        .airTimeSeconds = 66.91868799999034, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 7652,
        .glrDataReceived = 5462, .glrDuplicatesDropped = 0,
        .glrCustodyAcksSent = 0, .glrCustodyAcksReceived = 0,
        .glrCacheTimeouts = 0, .glrTxFailures = 0,
        .glrFaceTransitions = 0, .perturbations = 0, .sendRejects = 2285,
        .bufferEvictions = 3768, .custodyRefusals = 0,
        .glrSuspicionsRaised = 0, .glrSuspectSkips = 0,
        .glrRecoveryActivations = 0, .glrRecoverySprays = 0,
        .expiredDrops = 1794, .advBlackholeDrops = 0,
        .advGreyholeDrops = 0, .advSelfishRefusals = 0,
        .advFlapTransitions = 0, .bufferedAtEnd = 0, .macQueueAtEnd = 0,
        .latencyP50 = 19.890273793418515,
        .latencyP90 = 52.14751774033526,
        .latencyP99 = 59.766623496030924,
        .latencyMin = 0.33816629269040988,
        .latencyMax = 59.998384984939051,
        .latencyStddev = 18.676356221936228, .traceEventsRecorded = 0,
        .eventsExecuted = 205408}},
      {"Spray-and-Wait, storage 20, TTL 60 s, queue 2",
       [] {
         ScenarioConfig cfg = smallCell(Protocol::kSprayAndWait);
         cfg.storageLimit = 20;
         cfg.messageTtl = 60.0;
         cfg.queueLimit = 2;
         return cfg;
       },
       {.created = 100, .delivered = 67,
        .deliveryRatio = 0.67000000000000004,
        .avgLatency = 17.423797579068065, .avgHops = 2.5671641791044775,
        .maxPeakStorage = 20, .avgPeakStorage = 13.6, .macDataTx = 10517,
        .macQueueDrops = 825, .macRetryDrops = 40,
        .macRadioDownDrops = 0, .macAckTimeouts = 353,
        .macBusyDeferrals = 16718, .collisions = 44,
        .airTimeSeconds = 12.234512000002098, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 652,
        .glrDataReceived = 652, .glrDuplicatesDropped = 0,
        .glrCustodyAcksSent = 0, .glrCustodyAcksReceived = 0,
        .glrCacheTimeouts = 0, .glrTxFailures = 0,
        .glrFaceTransitions = 0, .perturbations = 0, .sendRejects = 825,
        .bufferEvictions = 16, .custodyRefusals = 0,
        .glrSuspicionsRaised = 0, .glrSuspectSkips = 0,
        .glrRecoveryActivations = 0, .glrRecoverySprays = 0,
        .expiredDrops = 556, .advBlackholeDrops = 0,
        .advGreyholeDrops = 0, .advSelfishRefusals = 0,
        .advFlapTransitions = 0, .bufferedAtEnd = 0, .macQueueAtEnd = 0,
        .latencyP50 = 13.459844711894981,
        .latencyP90 = 40.157328698057654,
        .latencyP99 = 60.302457390815754,
        .latencyMin = 0.01267424800184358,
        .latencyMax = 60.362395004542918,
        .latencyStddev = 17.512522899295792, .traceEventsRecorded = 0,
        .eventsExecuted = 79951}},
      {"Direct Delivery, storage 5, queue 1, Poisson 4/s",
       [] {
         ScenarioConfig cfg = smallCell(Protocol::kDirectDelivery);
         cfg.storageLimit = 5;
         cfg.queueLimit = 1;
         cfg.traffic.model = "poisson";
         cfg.traffic.rate = 4.0;
         return cfg;
       },
       {.created = 748, .delivered = 215,
        .deliveryRatio = 0.28743315508021389,
        .avgLatency = 11.729886744056559, .avgHops = 1,
        .maxPeakStorage = 5, .avgPeakStorage = 4.166666666666667,
        .macDataTx = 8280, .macQueueDrops = 23, .macRetryDrops = 9,
        .macRadioDownDrops = 0, .macAckTimeouts = 72,
        .macBusyDeferrals = 272, .collisions = 6,
        .airTimeSeconds = 7.1490079999991671, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 224,
        .glrDataReceived = 0, .glrDuplicatesDropped = 0,
        .glrCustodyAcksSent = 0, .glrCustodyAcksReceived = 0,
        .glrCacheTimeouts = 0, .glrTxFailures = 0,
        .glrFaceTransitions = 0, .perturbations = 0, .sendRejects = 23,
        .bufferEvictions = 407, .custodyRefusals = 0,
        .glrSuspicionsRaised = 0, .glrSuspectSkips = 0,
        .glrRecoveryActivations = 0, .glrRecoverySprays = 0,
        .expiredDrops = 0, .advBlackholeDrops = 0, .advGreyholeDrops = 0,
        .advSelfishRefusals = 0, .advFlapTransitions = 0,
        .bufferedAtEnd = 117, .macQueueAtEnd = 0,
        .latencyP50 = 1.0316884423226529,
        .latencyP90 = 34.593061709108838,
        .latencyP99 = 73.002877179099087,
        .latencyMin = 0.037953408305838821,
        .latencyMax = 89.77353912263456,
        .latencyStddev = 17.365415976178138, .traceEventsRecorded = 0,
        .eventsExecuted = 49394}},
      // Custody refusals under the watermark, the AIMD window, evictions,
      // TTL expiry and MAC send refusals.
      {"GLR overload: watermark 8, AIMD, storage 16, TTL 40 s, queue 4",
       [] {
         ScenarioConfig cfg = smallCell(Protocol::kGlr);
         cfg.simTime = 150.0;
         cfg.storageLimit = 16;
         cfg.queueLimit = 4;
         cfg.traffic.model = "poisson";
         cfg.traffic.rate = 8.0;
         cfg.custodyWatermark = 8;
         cfg.congestionControl = true;
         cfg.messageTtl = 40.0;
         return cfg;
       },
       {.created = 1068, .delivered = 282,
        .deliveryRatio = 0.2640449438202247,
        .avgLatency = 8.770252216246071, .avgHops = 1.5851063829787233,
        .maxPeakStorage = 16, .avgPeakStorage = 14.666666666666666,
        .macDataTx = 29892, .macQueueDrops = 430, .macRetryDrops = 46,
        .macRadioDownDrops = 0, .macAckTimeouts = 554,
        .macBusyDeferrals = 215017, .collisions = 493,
        .airTimeSeconds = 126.29635199997165, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 11724,
        .glrDataReceived = 11672, .glrDuplicatesDropped = 0,
        .glrCustodyAcksSent = 1861, .glrCustodyAcksReceived = 1858,
        .glrCacheTimeouts = 0, .glrTxFailures = 433,
        .glrFaceTransitions = 5625, .perturbations = 4,
        .sendRejects = 393, .bufferEvictions = 1733,
        .custodyRefusals = 9811, .glrSuspicionsRaised = 0,
        .glrSuspectSkips = 0, .glrRecoveryActivations = 0,
        .glrRecoverySprays = 0, .expiredDrops = 414,
        .advBlackholeDrops = 0, .advGreyholeDrops = 0,
        .advSelfishRefusals = 0, .advFlapTransitions = 0,
        .bufferedAtEnd = 389, .macQueueAtEnd = 7,
        .latencyP50 = 3.7132456589574341,
        .latencyP90 = 26.910133174051694,
        .latencyP99 = 38.222508318567058,
        .latencyMin = 0.010226000000017166,
        .latencyMax = 39.009923687551691,
        .latencyStddev = 10.179697462979396, .traceEventsRecorded = 0,
        .eventsExecuted = 439749}},
      // Suspicion, suspect skips and spray fallback against blackholes;
      // stale-location perturbations from random initial destinations.
      {"GLR recovery, 20% blackholes, kNoneKnow",
       [] {
         ScenarioConfig cfg = smallCell(Protocol::kGlr);
         cfg.radius = 120.0;
         cfg.locationMode = glr::core::LocationMode::kNoneKnow;
         cfg.glrRecovery = true;
         cfg.faults.enabled = true;
         cfg.faults.params.adversary.blackholeFraction = 0.2;
         return cfg;
       },
       {.created = 100, .delivered = 84,
        .deliveryRatio = 0.83999999999999997,
        .avgLatency = 52.924565324823824, .avgHops = 36.05952380952381,
        .maxPeakStorage = 61, .avgPeakStorage = 27.866666666666671,
        .macDataTx = 42827, .macQueueDrops = 0, .macRetryDrops = 92,
        .macRadioDownDrops = 0, .macAckTimeouts = 1071,
        .macBusyDeferrals = 438753, .collisions = 699,
        .airTimeSeconds = 185.29054399993467, .faultFrameDrops = 0,
        .duplicateDeliveries = 0, .glrDataSent = 17315,
        .glrDataReceived = 17231, .glrDuplicatesDropped = 575,
        .glrCustodyAcksSent = 16537, .glrCustodyAcksReceived = 15923,
        .glrCacheTimeouts = 627, .glrTxFailures = 84,
        .glrFaceTransitions = 2779, .perturbations = 22,
        .sendRejects = 0, .bufferEvictions = 0, .custodyRefusals = 0,
        .glrSuspicionsRaised = 75, .glrSuspectSkips = 1540,
        .glrRecoveryActivations = 570, .glrRecoverySprays = 702,
        .expiredDrops = 0, .advBlackholeDrops = 694,
        .advGreyholeDrops = 0, .advSelfishRefusals = 0,
        .advFlapTransitions = 0, .bufferedAtEnd = 95, .macQueueAtEnd = 1,
        .latencyP50 = 49.156944152691722,
        .latencyP90 = 100.26216106955641,
        .latencyP99 = 156.18654656918869,
        .latencyMin = 0.0099459999999993443,
        .latencyMax = 156.53463640161883,
        .latencyStddev = 40.170607276693922, .traceEventsRecorded = 0,
        .eventsExecuted = 769475}},
  };
  for (const PinnedCell& cell : cells) {
    SCOPED_TRACE(cell.name);
    EXPECT_EQ(glr::experiment::firstMismatch(
                  glr::experiment::runScenario(cell.config()), cell.golden),
              "")
        << "first field that differs from the golden";
  }
}

TEST(RingDeque, KeepsFifoOrderAcrossWrapAroundGrowth) {
  // Three pushes and two pops per round walk the front around the ring, so
  // most growths find the elements wrapped past the end of the old block.
  RingDeque<int> q;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 3; ++k) q.push_back(pushed++);
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(q.front(), popped++);
      q.pop_front();
    }
    ASSERT_EQ(q.size(), static_cast<std::size_t>(pushed - popped));
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(q[i], popped + static_cast<int>(i));
    }
    ASSERT_EQ(q.back(), pushed - 1);
  }
  EXPECT_EQ(q.capacity(), 64u);
  while (!q.empty()) {
    ASSERT_EQ(q.front(), popped++);
    q.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

/// Counts its own constructions, moves and destructions.
struct Tracked {
  static inline int made = 0;
  static inline int moved = 0;
  static inline int destroyed = 0;
  static int live() { return made + moved - destroyed; }

  explicit Tracked(int v) : value(v) { ++made; }
  Tracked(Tracked&& other) noexcept : value(other.value) { ++moved; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { ++destroyed; }

  int value;
};

TEST(RingDeque, ConstructsOncePerPushAndDestroysEveryElement) {
  Tracked::made = Tracked::moved = Tracked::destroyed = 0;
  {
    RingDeque<Tracked> q;
    for (int i = 0; i < 5; ++i) q.emplace_back(i);  // grows 1 -> 2 -> 4 -> 8
    EXPECT_EQ(Tracked::made, 5);
    EXPECT_EQ(Tracked::live(), 5);  // growth destroys what it moves from
    for (int i = 0; i < 2; ++i) {
      const int before = Tracked::destroyed;
      EXPECT_EQ(q.front().value, i);
      q.pop_front();
      EXPECT_EQ(Tracked::destroyed, before + 1);
    }
    EXPECT_EQ(Tracked::live(), 3);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(Tracked::live(), 0);
    for (int i = 0; i < 4; ++i) q.emplace_back(i);
    EXPECT_EQ(Tracked::made, 9);
    EXPECT_EQ(Tracked::live(), 4);
  }
  EXPECT_EQ(Tracked::live(), 0);  // the destructor destroyed the rest
}

TEST(RingDeque, FirstPushAllocatesOneSlot) {
  RingDeque<int> q;
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(7);
  EXPECT_EQ(q.capacity(), 1u);
  q.pop_front();
  q.push_back(8);  // a queue one element deep never grows
  EXPECT_EQ(q.capacity(), 1u);
  q.push_back(9);
  EXPECT_EQ(q.capacity(), 2u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng master{99};
  Rng f1 = master.fork(0);
  Rng f2 = master.fork(1);
  Rng f1again = Rng{99}.fork(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(f1(), f1again());
  }
  // Forks with different stream ids produce different streams.
  Rng g1 = Rng{99}.fork(0);
  Rng g2 = Rng{99}.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (g1() == g2()) ++same;
  }
  EXPECT_LT(same, 5);
  (void)f2;
}

TEST(Rng, Uniform01InRange) {
  Rng rng{7};
  double minv = 1.0, maxv = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    minv = std::min(minv, u);
    maxv = std::max(maxv, u);
  }
  EXPECT_LT(minv, 0.01);
  EXPECT_GT(maxv, 0.99);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Rng rng{13};
  std::vector<int> counts(7, 0);
  const int n = 700000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, n / 7.0 * 0.05);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng{17};
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    if (v == -3) sawLo = true;
    if (v == 3) sawHi = true;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{19};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng{21};
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(-1.0), std::invalid_argument);
}

}  // namespace
