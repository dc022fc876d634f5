// Cross-protocol invariant checker over a randomized scenario fuzzer.
//
// Golden scenarios pin exact numbers for one configuration; these tests pin
// *laws* that must hold for ANY configuration: conservation (delivered <=
// created, one first-delivery per message), capacity (storage peaks never
// exceed the buffer limit), custody balance (acks received <= acks sent <=
// data received), and clock sanity. A seeded fuzzer draws 24 configurations
// across the full protocol x mobility x churn x heterogeneous-radio
// matrix and runs them through the parallel sweep engine at two thread
// counts — every law is checked on every run, and the two thread counts
// must agree bit-for-bit (the PR-3 determinism contract now covers every
// new scenario knob).

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "closure_sink.hpp"
#include "dtn/buffer.hpp"
#include "dtn/metrics.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "mobility/registry.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::dtn::kUnlimitedStorage;
using glr::dtn::MetricsCollector;
using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::ChurnSpec;
using glr::experiment::Protocol;
using glr::experiment::protocolName;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;
using glr::sim::Rng;

/// 24 seeded configurations spanning protocols, every registered mobility
/// model, churn on/off, heterogeneous radii and finite storage. Small
/// horizons keep the whole corpus fast enough for Debug CI.
std::vector<ScenarioConfig> fuzzedConfigs() {
  const std::vector<std::string> models = {
      "waypoint", "walk", "direction", "gauss_markov", "manhattan",
      "cluster",  "static"};
  constexpr Protocol kProtocols[] = {
      Protocol::kGlr, Protocol::kEpidemic, Protocol::kDirectDelivery,
      Protocol::kSprayAndWait};
  Rng rng{0xC0FFEE5EEDULL};
  std::vector<ScenarioConfig> out;
  for (int i = 0; i < 24; ++i) {
    ScenarioConfig cfg;
    cfg.protocol = kProtocols[i % 4];
    cfg.mobility.model = models[static_cast<std::size_t>(i) % models.size()];
    cfg.numNodes = 16 + static_cast<int>(rng.below(16));
    cfg.trafficNodes = 2 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(cfg.numNodes - 1)));
    cfg.radius = 90.0 + rng.uniform(0.0, 110.0);
    cfg.speedMin = 0.1 + rng.uniform(0.0, 2.0);
    cfg.speedMax = cfg.speedMin + 2.0 + rng.uniform(0.0, 15.0);
    cfg.pause = rng.bernoulli(0.3) ? rng.uniform(0.0, 15.0) : 0.0;
    cfg.numMessages = 15 + static_cast<int>(rng.below(25));
    cfg.simTime = 120.0 + rng.uniform(0.0, 120.0);
    cfg.messageInterval = 0.5 + rng.uniform(0.0, 1.5);
    cfg.queueLimit = 30 + rng.below(120);
    cfg.custody = rng.bernoulli(0.7);
    if (rng.bernoulli(0.5)) cfg.storageLimit = 4 + rng.below(40);
    if (rng.bernoulli(0.5)) {
      cfg.churn.enabled = true;
      cfg.churn.params.fraction = 0.2 + rng.uniform(0.0, 0.6);
      cfg.churn.params.upMean = 20.0 + rng.uniform(0.0, 60.0);
      cfg.churn.params.downMean = 5.0 + rng.uniform(0.0, 20.0);
    }
    if (rng.bernoulli(0.5)) {
      cfg.radiusSpreadMin = 0.6 + rng.uniform(0.0, 0.3);
      cfg.radiusSpreadMax = 1.0 + rng.uniform(0.0, 0.4);
    }
    // Model-specific knobs, perturbed where it stresses the model.
    cfg.mobility.params.gridSpacing = 60.0 + rng.uniform(0.0, 90.0);
    cfg.mobility.params.clusterStddev = 40.0 + rng.uniform(0.0, 80.0);
    cfg.mobility.params.alpha = 0.5 + rng.uniform(0.0, 0.45);
    cfg.mobility.numClusters = 2 + static_cast<int>(rng.below(4));
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    out.push_back(cfg);
  }
  return out;
}

/// 12 seeded overload/fault configurations: stochastic traffic far past
/// the saturation knee (finite queues and storage), 10%-loss interference
/// bursts, frame corruption, stuck-node stalls, and GLR's watermark /
/// congestion-control knobs. A separate corpus (own RNG) so the original
/// 24-config draw sequence stays pinned.
std::vector<ScenarioConfig> overloadConfigs() {
  constexpr Protocol kProtocols[] = {
      Protocol::kGlr, Protocol::kEpidemic, Protocol::kSprayAndWait,
      Protocol::kDirectDelivery};
  const std::vector<std::string> trafficModels = {"poisson", "onoff",
                                                  "hotspot", "flashcrowd"};
  Rng rng{0xBADC0FFEEULL};
  std::vector<ScenarioConfig> out;
  for (int i = 0; i < 12; ++i) {
    ScenarioConfig cfg;
    cfg.protocol = kProtocols[i % 4];
    cfg.numNodes = 18 + static_cast<int>(rng.below(10));
    cfg.trafficNodes = cfg.numNodes - 2;
    cfg.radius = 100.0 + rng.uniform(0.0, 80.0);
    cfg.simTime = 90.0 + rng.uniform(0.0, 60.0);
    cfg.queueLimit = 20 + rng.below(40);
    cfg.storageLimit = 8 + rng.below(24);
    cfg.traffic.model =
        trafficModels[static_cast<std::size_t>(i) % trafficModels.size()];
    cfg.traffic.rate = 20.0 + rng.uniform(0.0, 40.0);  // far past the knee
    if (cfg.protocol == Protocol::kGlr) {
      cfg.custodyWatermark = 4 + rng.below(6);
      cfg.congestionControl = rng.bernoulli(0.5);
    }
    if (i % 3 == 0) {
      cfg.faults.enabled = true;
      cfg.faults.params.burstRate = 0.05;  // interference episodes…
      cfg.faults.params.burstMean = 4.0;
      cfg.faults.params.lossProb = 0.1;  // …dropping 10% of deliveries
    } else if (i % 3 == 1) {
      cfg.faults.enabled = true;
      cfg.faults.params.corruptProb = 0.02;
      cfg.faults.params.stallRate = 0.02;
      cfg.faults.params.stallMean = 5.0;
    }
    cfg.seed = 5000 + static_cast<std::uint64_t>(i);
    out.push_back(cfg);
  }
  return out;
}

/// 12 seeded adversarial configurations: misbehaving-node populations
/// (blackhole / greyhole / selfish / flapping) over GLR (with and without
/// the recovery sublayer), Epidemic and Spray-and-Wait, some with a bundle
/// TTL. A separate corpus (own RNG) so the earlier draw sequences stay
/// pinned. The adversary mix is chosen structurally per index so every
/// misbehavior class is guaranteed to appear in the corpus.
std::vector<ScenarioConfig> adversarialConfigs() {
  constexpr Protocol kProtocols[] = {Protocol::kGlr, Protocol::kEpidemic,
                                     Protocol::kSprayAndWait};
  Rng rng{0xAD5EED5ULL};
  std::vector<ScenarioConfig> out;
  for (int i = 0; i < 12; ++i) {
    ScenarioConfig cfg;
    cfg.protocol = kProtocols[i % 3];
    cfg.numNodes = 20 + static_cast<int>(rng.below(10));
    cfg.trafficNodes = cfg.numNodes - 2;
    cfg.radius = 110.0 + rng.uniform(0.0, 60.0);
    cfg.simTime = 100.0 + rng.uniform(0.0, 60.0);
    cfg.numMessages = 40 + static_cast<int>(rng.below(40));
    cfg.messageInterval = 0.5;
    cfg.faults.enabled = true;
    auto& adv = cfg.faults.params.adversary;
    switch (i % 4) {
      case 0:
        adv.blackholeFraction = 0.25;
        break;
      case 1:
        adv.greyholeFraction = 0.3;
        adv.greyholeDropProb = 0.6;
        break;
      case 2:
        adv.selfishFraction = 0.3;
        break;
      case 3:
        adv.blackholeFraction = 0.15;
        adv.flappingFraction = 0.2;
        adv.flapUpMean = 15.0;
        adv.flapDownMean = 5.0;
        break;
    }
    // GLR cells past the first arm the recovery sublayer, so the corpus
    // holds both plain and recovering GLR under the same attack classes.
    if (cfg.protocol == Protocol::kGlr && i >= 3) cfg.glrRecovery = true;
    if (i >= 8) cfg.messageTtl = 45.0;
    cfg.seed = 9000 + static_cast<std::uint64_t>(i);
    out.push_back(cfg);
  }
  return out;
}

/// The invariant battery. Every law here must hold for any (config, result)
/// pair the engine can produce; a failure is a real bug, not a flaky test.
void checkInvariants(const ScenarioConfig& cfg, const ScenarioResult& r,
                     int caseIdx) {
  SCOPED_TRACE("case " + std::to_string(caseIdx) + ": " +
               protocolName(cfg.protocol) + " x " + cfg.mobility.model +
               " x " + cfg.traffic.model +
               (cfg.churn.enabled ? " x churn" : "") +
               (cfg.faults.enabled ? " x faults" : "") + " seed " +
               std::to_string(cfg.seed));

  // Conservation: nothing is delivered that was not created, and the
  // metrics layer collapses duplicate deliveries onto the first one. The
  // paper schedule creates exactly numMessages; stochastic models are
  // bounded only by maxMessages (when set).
  if (cfg.traffic.model == "paper") {
    EXPECT_LE(r.created, static_cast<std::size_t>(cfg.numMessages));
  } else if (cfg.traffic.maxMessages != 0) {
    EXPECT_LE(r.created, cfg.traffic.maxMessages);
  }
  EXPECT_LE(r.delivered, r.created);
  EXPECT_GE(r.deliveryRatio, 0.0);
  EXPECT_LE(r.deliveryRatio, 1.0);
  if (r.created > 0) {
    EXPECT_DOUBLE_EQ(r.deliveryRatio,
                     static_cast<double>(r.delivered) /
                         static_cast<double>(r.created));
  }

  // Latency/hops: first deliveries happen inside the simulated horizon and
  // need at least one MAC hop.
  EXPECT_GE(r.avgLatency, 0.0);
  EXPECT_LE(r.avgLatency, cfg.simTime);
  if (r.delivered > 0) {
    EXPECT_GT(r.avgLatency, 0.0);
    EXPECT_GE(r.avgHops, 1.0);
  } else {
    EXPECT_EQ(r.avgHops, 0.0);
  }

  // Capacity: buffer occupancy peaks can never exceed the configured
  // storage limit (Store + Cache share it), and the average peak is
  // bounded by the max peak.
  if (cfg.storageLimit != kUnlimitedStorage) {
    EXPECT_LE(r.maxPeakStorage, static_cast<double>(cfg.storageLimit));
  }
  EXPECT_LE(r.avgPeakStorage, r.maxPeakStorage + 1e-9);

  // Custody balance: each received custody transfer is answered with at
  // most one of {accepted ack, watermark refusal}, and an ack is received
  // at most once per sent ack — the chain acksReceived <= acksSent (+
  // refusals) <= dataReceived <= dataSent can thin out (losses) but never
  // grow.
  EXPECT_LE(r.glrCustodyAcksReceived, r.glrCustodyAcksSent);
  EXPECT_LE(r.glrCustodyAcksSent + r.custodyRefusals, r.glrDataReceived);
  EXPECT_LE(r.glrDataReceived, r.glrDataSent);

  // Churn accounting: a radio that nothing duty-cycles (no churn, no
  // stuck-node stalls, no flapping adversaries) never drops for being down.
  if (!cfg.churn.enabled &&
      !(cfg.faults.enabled &&
        (cfg.faults.params.stallRate > 0.0 ||
         cfg.faults.params.adversary.flappingFraction > 0.0))) {
    EXPECT_EQ(r.macRadioDownDrops, 0u);
  }

  // Overload accounting: the new counters are zero exactly when their
  // mechanism is off — no fault layer means no fault drops, no watermark
  // means no refusals, unlimited storage means no evictions.
  if (!cfg.faults.enabled) {
    EXPECT_EQ(r.faultFrameDrops, 0u);
  }
  if (cfg.custodyWatermark == 0) {
    EXPECT_EQ(r.custodyRefusals, 0u);
  }
  if (cfg.storageLimit == kUnlimitedStorage) {
    EXPECT_EQ(r.bufferEvictions, 0u);
  }

  // Adversarial accounting: each misbehavior counter is zero exactly when
  // its node class is absent, the GLR recovery counters are zero unless the
  // knob is armed, and TTL-less runs never expire a bundle.
  const auto& adv = cfg.faults.params.adversary;
  const bool advOn = cfg.faults.enabled;
  if (!advOn || adv.blackholeFraction == 0.0) {
    EXPECT_EQ(r.advBlackholeDrops, 0u);
  }
  if (!advOn || adv.greyholeFraction == 0.0) {
    EXPECT_EQ(r.advGreyholeDrops, 0u);
  }
  if (!advOn || adv.selfishFraction == 0.0) {
    EXPECT_EQ(r.advSelfishRefusals, 0u);
  }
  if (!advOn || adv.flappingFraction == 0.0) {
    EXPECT_EQ(r.advFlapTransitions, 0u);
  }
  if (!cfg.glrRecovery) {
    EXPECT_EQ(r.glrSuspicionsRaised, 0u);
    EXPECT_EQ(r.glrSuspectSkips, 0u);
    EXPECT_EQ(r.glrRecoveryActivations, 0u);
    EXPECT_EQ(r.glrRecoverySprays, 0u);
  }
  if (cfg.messageTtl == 0.0) {
    EXPECT_EQ(r.expiredDrops, 0u);
  }

  // Conservation with counted losses, adversarial discards included: a
  // message may never vanish without a counter moving.
  EXPECT_TRUE(glr::experiment::conservationHolds(r))
      << r.created << " created, too few delivered/held/dropped";

  // Run health: something actually executed, and the clock stayed sane
  // (every mobility model throws on a backwards query, so a kernel that
  // ever ran time backwards could not have completed the run).
  EXPECT_GT(r.eventsExecuted, 0u);
  EXPECT_GE(r.airTimeSeconds, 0.0);
}

TEST(InvariantFuzz, LawsHoldAcrossTheScenarioMatrixAtAnyThreadCount) {
  const std::vector<ScenarioConfig> cells = fuzzedConfigs();

  SweepRunner::Options serialOpts;
  serialOpts.threads = 1;
  SweepRunner serial{serialOpts};
  const std::vector<ScenarioResult> base = serial.runCells(cells);

  ASSERT_EQ(base.size(), cells.size());
  std::uint64_t churnDownDrops = 0;
  bool anyChurn = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    checkInvariants(cells[i], base[i], static_cast<int>(i));
    if (cells[i].churn.enabled) {
      anyChurn = true;
      churnDownDrops += base[i].macRadioDownDrops;
    }
  }
  // The churn path must actually bite somewhere in the corpus — a fuzzer
  // whose churned cells never lose a send is not exercising the feature.
  ASSERT_TRUE(anyChurn);
  EXPECT_GT(churnDownDrops, 0u);

  // The determinism contract: the same cells on a 3-thread pool must land
  // bit-identically, churn events, mobility draws and all.
  SweepRunner::Options poolOpts;
  poolOpts.threads = 3;
  SweepRunner pool{poolOpts};
  const std::vector<ScenarioResult> parallel = pool.runCells(cells);
  ASSERT_EQ(parallel.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(bitIdenticalIgnoringWall(base[i], parallel[i]))
        << "cell " << i << " diverged across thread counts";
  }
}

TEST(InvariantFuzz, OverloadAndFaultLawsHoldAtAnyThreadCount) {
  const std::vector<ScenarioConfig> cells = overloadConfigs();

  SweepRunner::Options serialOpts;
  serialOpts.threads = 1;
  SweepRunner serial{serialOpts};
  const std::vector<ScenarioResult> base = serial.runCells(cells);

  ASSERT_EQ(base.size(), cells.size());
  std::uint64_t rejects = 0;
  std::uint64_t evictions = 0;
  std::uint64_t faultDrops = 0;
  std::uint64_t refusals = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    checkInvariants(cells[i], base[i], static_cast<int>(i));
    rejects += base[i].sendRejects + base[i].macQueueDrops;
    evictions += base[i].bufferEvictions;
    if (cells[i].faults.enabled) faultDrops += base[i].faultFrameDrops;
    if (cells[i].custodyWatermark > 0) refusals += base[i].custodyRefusals;
  }
  // The corpus must actually saturate: offered load past the knee has to
  // produce counted rejections and storage-pressure evictions somewhere,
  // the fault layer has to drop deliveries, and the watermark has to
  // refuse custody — otherwise the laws above were checked in a vacuum.
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(faultDrops, 0u);
  EXPECT_GT(refusals, 0u);

  // Determinism under overload: saturated queues, fault draws and refusal
  // backoffs must all land bit-identically on a 3-thread pool.
  SweepRunner::Options poolOpts;
  poolOpts.threads = 3;
  SweepRunner pool{poolOpts};
  const std::vector<ScenarioResult> parallel = pool.runCells(cells);
  ASSERT_EQ(parallel.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(bitIdenticalIgnoringWall(base[i], parallel[i]))
        << "overload cell " << i << " diverged across thread counts";
  }
}

TEST(InvariantFuzz, AdversarialLawsHoldAtAnyThreadCount) {
  const std::vector<ScenarioConfig> cells = adversarialConfigs();

  SweepRunner::Options serialOpts;
  serialOpts.threads = 1;
  SweepRunner serial{serialOpts};
  const std::vector<ScenarioResult> base = serial.runCells(cells);

  ASSERT_EQ(base.size(), cells.size());
  std::uint64_t blackholeDrops = 0;
  std::uint64_t greyholeDrops = 0;
  std::uint64_t selfishRefusals = 0;
  std::uint64_t flapTransitions = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t sprays = 0;
  std::uint64_t expiries = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    checkInvariants(cells[i], base[i], static_cast<int>(i));
    blackholeDrops += base[i].advBlackholeDrops;
    greyholeDrops += base[i].advGreyholeDrops;
    selfishRefusals += base[i].advSelfishRefusals;
    flapTransitions += base[i].advFlapTransitions;
    suspicions += base[i].glrSuspicionsRaised;
    sprays += base[i].glrRecoverySprays;
    expiries += base[i].expiredDrops;
  }
  // Every misbehavior class and every recovery reaction must actually bite
  // somewhere in the corpus — a corpus whose blackholes never swallow a
  // frame (or whose recovery never sprays) is not exercising the feature,
  // and the laws above were checked in a vacuum.
  EXPECT_GT(blackholeDrops, 0u);
  EXPECT_GT(greyholeDrops, 0u);
  EXPECT_GT(selfishRefusals, 0u);
  EXPECT_GT(flapTransitions, 0u);
  EXPECT_GT(suspicions, 0u);
  EXPECT_GT(sprays, 0u);
  EXPECT_GT(expiries, 0u);

  // Determinism under attack: adversary assignment, greyhole draws, flap
  // schedules, suspicion verdicts and recovery sprays must all land
  // bit-identically on a 3-thread pool.
  SweepRunner::Options poolOpts;
  poolOpts.threads = 3;
  SweepRunner pool{poolOpts};
  const std::vector<ScenarioResult> parallel = pool.runCells(cells);
  ASSERT_EQ(parallel.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(bitIdenticalIgnoringWall(base[i], parallel[i]))
        << "adversarial cell " << i << " diverged across thread counts";
  }
}

// ---------------------------------------------------------------------------
// Direct unit laws for the layers the fuzzer exercises end-to-end.
// ---------------------------------------------------------------------------

TEST(MetricsLaws, NoDuplicateDeliveryPerMessage) {
  MetricsCollector m;
  glr::dtn::Message msg;
  msg.id = {3, 7};
  msg.srcNode = 3;
  msg.created = 1.0;
  m.onCreated(msg);
  m.onDelivered(msg, 5.0, 2);
  m.onDelivered(msg, 6.0, 4);  // a second copy arrives: duplicate, not delivery
  m.onDelivered(msg, 7.0, 1);
  EXPECT_EQ(m.deliveredCount(), 1u);
  EXPECT_EQ(m.duplicateDeliveries(), 2u);
  EXPECT_DOUBLE_EQ(m.avgLatency(), 4.0);  // only the first delivery counts
  EXPECT_DOUBLE_EQ(m.avgHops(), 2.0);
}

TEST(MetricsLaws, UnknownDeliveriesAreIgnored) {
  MetricsCollector m;
  glr::dtn::Message msg;
  msg.id = {1, 2};
  msg.created = 1.0;
  m.onDelivered(msg, 5.0, 2);  // never created
  EXPECT_EQ(m.deliveredCount(), 0u);
  EXPECT_EQ(m.duplicateDeliveries(), 0u);
  EXPECT_DOUBLE_EQ(m.deliveryRatio(), 0.0);
}

TEST(RadioLaws, WorldGatesAndReportsPerNodeRadioState) {
  // Unit-level contract of the churn/heterogeneity plumbing: setRadioUp
  // gates the MAC (sends drop, down-state is queryable) and setNodeRadius
  // overrides the reported transmit range without touching other nodes.
  glr::sim::Simulator sim;
  glr::phy::TwoRayGround model;
  glr::phy::RadioParams radio;
  radio.nominalRange = 100.0;
  glr::net::World world{sim, model, radio, glr::mac::MacParams{}};
  for (int i = 0; i < 2; ++i) {
    world.addNode(std::make_unique<glr::mobility::StaticMobility>(
                      glr::geom::Point2{50.0 * i, 0.0}),
                  Rng{static_cast<std::uint64_t>(i)});
  }

  EXPECT_TRUE(world.radioUp(0));
  EXPECT_DOUBLE_EQ(world.radioRangeOf(0), 100.0);
  world.setNodeRadius(0, 140.0);
  EXPECT_DOUBLE_EQ(world.radioRangeOf(0), 140.0);
  EXPECT_DOUBLE_EQ(world.radioRangeOf(1), 100.0);

  world.setRadioUp(0, false);
  EXPECT_FALSE(world.radioUp(0));
  EXPECT_TRUE(world.radioUp(1));
  glr::net::Packet p;
  p.bytes = 64;
  p.kind = "test";
  EXPECT_FALSE(world.macOf(0).send(p, glr::net::kBroadcast));
  EXPECT_EQ(world.macOf(0).stats().radioDownDrops, 1u);

  world.setRadioUp(0, true);
  EXPECT_TRUE(world.radioUp(0));
  EXPECT_TRUE(world.macOf(0).send(p, glr::net::kBroadcast));
}

TEST(CrashSafetyLaws, RestoringTheSameSnapshotTwiceIsBitIdentical) {
  // Restore must be a pure read of the snapshot: restoring the same file
  // into two fresh scenarios must both continue bit-identically to the
  // uninterrupted run — no hidden mutation of the file or global state.
  ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.trafficNodes = 16;
  cfg.simTime = 150.0;
  cfg.numMessages = 40;
  cfg.seed = 33;
  cfg.checkpointEvery = 100.0;
  cfg.checkpointPath = testing::TempDir() + "invariant_restore.ckpt";
  const ScenarioResult golden = glr::experiment::runScenario(cfg);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = cfg.checkpointPath;
  const ScenarioResult first = glr::experiment::runScenario(resumed);
  const ScenarioResult second = glr::experiment::runScenario(resumed);
  EXPECT_TRUE(bitIdenticalIgnoringWall(golden, first))
      << "first restore diverged from the uninterrupted run";
  EXPECT_TRUE(bitIdenticalIgnoringWall(first, second))
      << "second restore of the same snapshot diverged from the first";
  std::remove(cfg.checkpointPath.c_str());
}

TEST(ClockLaws, SimulatorTimeIsMonotoneAcrossCallbacks) {
  glr::sim::Simulator sim;
  glr::test::ClosureSink events{sim};
  Rng rng{77};
  double last = -1.0;
  int fired = 0;
  // A self-rescheduling probe with random deltas; any backwards step fails.
  std::function<void()> probe = [&] {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
    if (++fired < 500) events.schedule(rng.uniform(0.0, 2.0), probe);
  };
  events.schedule(0.0, probe);
  sim.run();
  EXPECT_EQ(fired, 500);
}

}  // namespace
