// Direct unit coverage of the fault-injection layer (net/faults.hpp): the
// AdversaryModel's seeded behavior assignment and relay decisions, the
// FaultProcess edge cases the end-to-end fuzzer reaches only by luck
// (overlapping loss bursts, near-zero-length stalls, corruption composed
// with burst loss), counted TTL expiry in the message buffer, and the
// adversary-off golden differential that pins every new knob's default to
// the kernel-regression scenario bit-for-bit.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "checkpoint/scenario_checkpoint.hpp"
#include "closure_sink.hpp"
#include "dtn/buffer.hpp"
#include "experiment/scenario.hpp"
#include "mac/mac.hpp"
#include "mobility/mobility.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::net::AdversaryModel;
using glr::net::FaultProcess;
using glr::sim::Rng;

using Behavior = AdversaryModel::Behavior;
using RelayDecision = AdversaryModel::RelayDecision;

// ---------------------------------------------------------------------------
// AdversaryModel: assignment, determinism, validation, relay decisions.
// ---------------------------------------------------------------------------

TEST(AdversaryModel, AssignsRoundedFractionsOfThePopulation) {
  AdversaryModel::Params p;
  p.blackholeFraction = 0.25;  // 5 of 20
  p.greyholeFraction = 0.2;    // 4
  p.selfishFraction = 0.1;     // 2
  p.flappingFraction = 0.15;   // 3
  AdversaryModel adv{20, p, Rng{42}};

  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 20; ++i) {
    ++counts[static_cast<int>(adv.behaviorOf(i))];
  }
  EXPECT_EQ(counts[static_cast<int>(Behavior::kHonest)], 6);
  EXPECT_EQ(counts[static_cast<int>(Behavior::kBlackhole)], 5);
  EXPECT_EQ(counts[static_cast<int>(Behavior::kGreyhole)], 4);
  EXPECT_EQ(counts[static_cast<int>(Behavior::kSelfish)], 2);
  EXPECT_EQ(counts[static_cast<int>(Behavior::kFlapping)], 3);

  // flappingNodes() lists exactly the flapping ids, ascending.
  ASSERT_EQ(adv.flappingNodes().size(), 3u);
  for (std::size_t i = 0; i < adv.flappingNodes().size(); ++i) {
    const int id = adv.flappingNodes()[i];
    EXPECT_EQ(adv.behaviorOf(id), Behavior::kFlapping);
    if (i > 0) {
      EXPECT_LT(adv.flappingNodes()[i - 1], id);
    }
  }
}

TEST(AdversaryModel, AssignmentIsSeededAndIndependentOfRelayDraws) {
  AdversaryModel::Params p;
  p.blackholeFraction = 0.3;
  p.greyholeFraction = 0.3;
  AdversaryModel a{30, p, Rng{7}};
  AdversaryModel b{30, p, Rng{7}};
  // Greyhole relay decisions draw from a separate stream fork, so burning
  // draws on one instance cannot perturb the (already fixed) assignment.
  for (int i = 0; i < 30; ++i) (void)a.onRelayData(i);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(a.behaviorOf(i), b.behaviorOf(i)) << "node " << i;
  }
}

TEST(AdversaryModel, ValidatesParams) {
  AdversaryModel::Params p;
  p.blackholeFraction = 1.5;
  EXPECT_THROW((AdversaryModel{10, p, Rng{1}}), std::invalid_argument);
  p = {};
  p.greyholeFraction = -0.1;
  EXPECT_THROW((AdversaryModel{10, p, Rng{1}}), std::invalid_argument);
  p = {};
  p.greyholeFraction = 0.5;
  p.greyholeDropProb = 1.5;
  EXPECT_THROW((AdversaryModel{10, p, Rng{1}}), std::invalid_argument);
  p = {};
  p.blackholeFraction = 0.6;  // 6 + 6 > 10: fractions sum past the nodes
  p.selfishFraction = 0.6;
  EXPECT_THROW((AdversaryModel{10, p, Rng{1}}), std::invalid_argument);
  p = {};
  p.flappingFraction = 0.5;
  p.flapUpMean = 0.0;
  EXPECT_THROW((AdversaryModel{10, p, Rng{1}}), std::invalid_argument);
  p = {};
  p.blackholeFraction = 0.5;
  EXPECT_THROW((AdversaryModel{0, p, Rng{1}}), std::invalid_argument);
}

TEST(AdversaryModel, RelayDecisionsMatchBehaviorAndAreCounted) {
  AdversaryModel::Params p;
  p.blackholeFraction = 0.25;
  p.selfishFraction = 0.25;
  p.flappingFraction = 0.25;
  AdversaryModel adv{8, p, Rng{3}};

  std::uint64_t drops = 0;
  std::uint64_t refusals = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      const RelayDecision d = adv.onRelayData(i);
      switch (adv.behaviorOf(i)) {
        case Behavior::kHonest:
        case Behavior::kFlapping:  // protocol-honest, misbehaves via radio
          EXPECT_EQ(d, RelayDecision::kAccept);
          break;
        case Behavior::kBlackhole:
          EXPECT_EQ(d, RelayDecision::kDrop);
          ++drops;
          break;
        case Behavior::kSelfish:
          EXPECT_EQ(d, RelayDecision::kRefuse);
          ++refusals;
          break;
        case Behavior::kGreyhole:
          break;  // not assigned in this test
      }
    }
  }
  EXPECT_EQ(adv.counters().blackholeDrops, drops);
  EXPECT_EQ(adv.counters().selfishRefusals, refusals);
  EXPECT_EQ(adv.counters().greyholeDrops, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(refusals, 0u);
}

TEST(AdversaryModel, GreyholeDropProbabilityExtremesAreDeterministic) {
  AdversaryModel::Params p;
  p.greyholeFraction = 1.0;
  p.greyholeDropProb = 1.0;
  AdversaryModel always{4, p, Rng{5}};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(always.onRelayData(i), RelayDecision::kDrop);
  }
  EXPECT_EQ(always.counters().greyholeDrops, 4u);

  p.greyholeDropProb = 0.0;
  AdversaryModel never{4, p, Rng{5}};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(never.onRelayData(i), RelayDecision::kAccept);
  }
  EXPECT_EQ(never.counters().greyholeDrops, 0u);
}

// ---------------------------------------------------------------------------
// FaultProcess edge cases against a tiny direct-constructed world.
// ---------------------------------------------------------------------------

/// Discards everything it receives (frame delivery needs *an* agent).
class NullAgent final : public glr::net::Agent {
 public:
  void start() override {}
  void onPacket(const glr::net::Packet&, int) override {}
};

/// Two static nodes in range, with node 0 broadcasting a frame every 100 ms
/// so the delivery filter has traffic to chew on.
struct TinyWorld {
  glr::sim::Simulator sim;
  glr::phy::TwoRayGround model;
  glr::phy::RadioParams radio;
  std::unique_ptr<glr::net::World> world;

  TinyWorld() {
    radio.nominalRange = 100.0;
    world = std::make_unique<glr::net::World>(sim, model, radio,
                                              glr::mac::MacParams{});
    for (int i = 0; i < 2; ++i) {
      world->addNode(std::make_unique<glr::mobility::StaticMobility>(
                         glr::geom::Point2{30.0 * i, 0.0}),
                     Rng{static_cast<std::uint64_t>(i)});
      world->setAgent(i, std::make_unique<NullAgent>());
    }
  }

  glr::test::ClosureSink events{sim};
  std::function<void()> tick;  // member: outlives sim events it reschedules

  void pumpBroadcasts(double horizon, double interval = 0.1) {
    world->start();
    tick = [this, interval] {
      glr::net::Packet p;
      p.bytes = 64;
      p.kind = "tick";
      (void)world->macOf(0).send(p, glr::net::kBroadcast);
      events.schedule(interval, [this] { tick(); });
    };
    events.schedule(0.0, [this] { tick(); });
    sim.run(horizon);
  }
};

TEST(FaultEdgeCases, OverlappingBurstsCountEveryLossAndDrainCleanly) {
  TinyWorld t;
  FaultProcess::Params p;
  p.burstRate = 0.5;  // offered burst load 2.0: overlapping windows, with
  p.burstMean = 4.0;  // idle gaps the drain check below can observe
  p.lossProb = 1.0;   // every delivery inside a burst dies
  FaultProcess faults{*t.world, p, Rng{11}};
  faults.start();
  t.pumpBroadcasts(60.0);

  EXPECT_GT(faults.counters().burstsStarted, 5u);
  EXPECT_GT(faults.counters().framesLost, 0u);
  // The channel's fault accounting agrees exactly with the process's own:
  // a suppressed delivery is counted once on each side, never silently.
  EXPECT_EQ(t.world->channel().stats().faultDrops,
            faults.counters().framesLost + faults.counters().framesCorrupted);
  // Overlap arithmetic must drain: every burst start is paired with exactly
  // one end, so the activity flag must be observed both set and clear over
  // the horizon (a lost decrement would latch it on; a double decrement
  // would clear it while a window is open and let frames through, which the
  // accounting equality above would catch as a mismatch).
  bool sawActive = faults.burstActive();
  bool sawIdle = !faults.burstActive();
  for (int step = 0; step < 300; ++step) {
    t.sim.run(60.0 + 0.5 * (step + 1));
    if (faults.burstActive()) {
      sawActive = true;
    } else {
      sawIdle = true;
    }
  }
  EXPECT_TRUE(sawActive);
  EXPECT_TRUE(sawIdle);
}

TEST(FaultEdgeCases, NearZeroLengthStallsToggleTheRadioAndRecover) {
  TinyWorld t;
  FaultProcess::Params p;
  p.stallRate = 5.0;     // many stalls…
  p.stallMean = 1e-6;    // …each essentially zero-length
  FaultProcess faults{*t.world, p, Rng{13}};
  faults.start();
  t.pumpBroadcasts(20.0);

  EXPECT_GT(faults.counters().stallsStarted, 10u);
  // Every stall must have unwound: both radios are back up at the end.
  EXPECT_TRUE(t.world->radioUp(0));
  EXPECT_TRUE(t.world->radioUp(1));
}

TEST(FaultEdgeCases, CorruptionComposesWithBurstLossUnderOneAccounting) {
  TinyWorld t;
  FaultProcess::Params p;
  p.burstRate = 0.5;
  p.burstMean = 5.0;
  p.lossProb = 0.7;
  p.corruptProb = 0.3;  // always-on, also outside bursts
  FaultProcess faults{*t.world, p, Rng{17}};
  faults.start();
  t.pumpBroadcasts(60.0);

  EXPECT_GT(faults.counters().framesLost, 0u);
  EXPECT_GT(faults.counters().framesCorrupted, 0u);
  EXPECT_EQ(t.world->channel().stats().faultDrops,
            faults.counters().framesLost + faults.counters().framesCorrupted);
}

// ---------------------------------------------------------------------------
// Counted TTL expiry in the buffer (satellite audit: expiry is never a
// silent erasure).
// ---------------------------------------------------------------------------

TEST(BufferExpiry, ExpireDueCountsBothAreasAndSparesImmortals) {
  glr::dtn::MessageBuffer buf;
  const auto make = [](int seq, double expiresAt) {
    glr::dtn::Message m;
    m.id = {1, seq};
    if (expiresAt > 0.0) m.expiresAt = expiresAt;  // default: immortal
    return m;
  };
  ASSERT_TRUE(buf.addToStore(make(0, 5.0)));
  ASSERT_TRUE(buf.addToStore(make(1, 10.0)));
  ASSERT_TRUE(buf.addToStore(make(2, 0.0)));  // immortal default
  ASSERT_TRUE(buf.addToStore(make(3, 6.0)));
  ASSERT_TRUE(buf.moveToCache(make(3, 0.0).key(), /*nextHop=*/9, 1.0));

  EXPECT_EQ(buf.expireDue(4.9), 0u);
  EXPECT_EQ(buf.expireDue(7.0), 2u);  // store seq 0 + cached seq 3 (both <=)
  EXPECT_EQ(buf.expiredCount(), 2u);
  EXPECT_EQ(buf.expireDue(10.0), 1u);  // seq 1 expires exactly at its stamp
  EXPECT_EQ(buf.expiredCount(), 3u);
  // The immortal default survives any realistic clock.
  EXPECT_EQ(buf.expireDue(1e17), 0u);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_TRUE(buf.inStore(make(2, 0.0).key()));
}

TEST(BufferExpiry, CacheEntryNextHopReportsOnlyCachedCopies) {
  glr::dtn::MessageBuffer buf;
  glr::dtn::Message m;
  m.id = {2, 0};
  const auto key = m.key();
  ASSERT_TRUE(buf.addToStore(m));
  EXPECT_FALSE(buf.cacheEntryNextHop(key).has_value());  // store-only
  ASSERT_TRUE(buf.moveToCache(key, /*nextHop=*/7, 3.0));
  ASSERT_TRUE(buf.cacheEntryNextHop(key).has_value());
  EXPECT_EQ(*buf.cacheEntryNextHop(key), 7);
  ASSERT_TRUE(buf.returnToStore(key));
  EXPECT_FALSE(buf.cacheEntryNextHop(key).has_value());
}

// End-to-end TTL regression: with a lifetime configured, expiries surface as
// counted drops; epidemic's never-clear buffers make at least one expiry
// certain once the horizon passes created + ttl.
TEST(BufferExpiry, ScenarioTtlProducesCountedExpiredDrops) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.numNodes = 20;
  cfg.trafficNodes = 18;
  cfg.simTime = 120.0;
  cfg.numMessages = 30;
  cfg.messageTtl = 30.0;
  cfg.seed = 21;
  const auto r = runScenario(cfg);
  EXPECT_GT(r.expiredDrops, 0u);
  EXPECT_GT(r.created, 0u);

  // Zero-when-off: the same scenario without a TTL expires nothing.
  cfg.messageTtl = 0.0;
  EXPECT_EQ(runScenario(cfg).expiredDrops, 0u);
}

// ---------------------------------------------------------------------------
// The adversary-off golden differential: every adversarial-resilience knob,
// spelled out at its default, digests like a default config — so the
// spelled-out scenario is the one KernelRegression pins, which also holds
// every adversary and recovery counter at zero.
// ---------------------------------------------------------------------------

TEST(AdversaryOff, DefaultKnobsReproduceKernelGoldenBitIdentically) {
  ScenarioConfig cfg;
  cfg.glrRecovery = false;
  cfg.glrSuspicionThreshold = 2;
  cfg.glrSuspicionTtl = 120.0;
  cfg.glrRecoveryAfterFailures = 3;
  cfg.glrRecoveryFanout = 2;
  cfg.glrRecoveryCooldown = 15.0;
  cfg.messageTtl = 0.0;
  cfg.faults.enabled = false;
  cfg.faults.params.adversary.blackholeFraction = 0.0;
  cfg.faults.params.adversary.greyholeFraction = 0.0;
  cfg.faults.params.adversary.greyholeDropProb = 0.5;
  cfg.faults.params.adversary.selfishFraction = 0.0;
  cfg.faults.params.adversary.flappingFraction = 0.0;
  cfg.faults.params.adversary.flapUpMean = 20.0;
  cfg.faults.params.adversary.flapDownMean = 5.0;
  EXPECT_EQ(glr::ckpt::configDigest(cfg),
            glr::ckpt::configDigest(ScenarioConfig{}));
}

}  // namespace
