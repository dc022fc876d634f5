// Tests for the experiment harness: reproducibility, config plumbing,
// metrics aggregation, and the core comparative properties the paper's
// evaluation rests on (small-scale versions to stay fast).

#include <gtest/gtest.h>

#include <string>

#include "checkpoint/scenario_checkpoint.hpp"
#include "dtn/metrics.hpp"
#include "experiment/scenario.hpp"
#include "experiment/tables.hpp"

namespace {

using glr::dtn::MetricsCollector;
using glr::experiment::fmt;
using glr::experiment::fmtCI;
using glr::experiment::fmtPct;
using glr::experiment::metricAcross;
using glr::experiment::Protocol;
using glr::experiment::protocolName;
using glr::experiment::runScenario;
using glr::experiment::runScenarioSeeds;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

ScenarioConfig quickConfig(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.numMessages = 40;
  cfg.simTime = 240.0;
  cfg.radius = 150.0;
  cfg.seed = 42;
  return cfg;
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto a = runScenario(quickConfig(Protocol::kGlr));
  const auto b = runScenario(quickConfig(Protocol::kGlr));
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
  EXPECT_DOUBLE_EQ(a.avgHops, b.avgHops);
  EXPECT_EQ(a.macDataTx, b.macDataTx);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto cfg = quickConfig(Protocol::kGlr);
  const auto a = runScenario(cfg);
  cfg.seed = 43;
  const auto b = runScenario(cfg);
  EXPECT_NE(a.eventsExecuted, b.eventsExecuted);
}

TEST(Scenario, GlrDeliversAt150m) {
  const auto r = runScenario(quickConfig(Protocol::kGlr));
  EXPECT_EQ(r.created, 40u);
  EXPECT_GT(r.deliveryRatio, 0.9);
  EXPECT_GT(r.avgLatency, 0.0);
  EXPECT_GT(r.avgHops, 1.0);
}

TEST(Scenario, EpidemicDeliversAt150m) {
  const auto r = runScenario(quickConfig(Protocol::kEpidemic));
  EXPECT_GT(r.deliveryRatio, 0.9);
}

TEST(Scenario, GlrUsesFarLessStorageThanEpidemic) {
  // The paper's core storage claim (Sec. 3.7): epidemic keeps everything
  // everywhere; GLR's peaks are a fraction of messages in transit.
  const auto g = runScenario(quickConfig(Protocol::kGlr));
  const auto e = runScenario(quickConfig(Protocol::kEpidemic));
  EXPECT_LT(g.avgPeakStorage, e.avgPeakStorage / 2.0);
}

TEST(Scenario, SingleCopyInDenseNetwork) {
  // At 150 m Algorithm 1 selects a single copy: storage stays small and no
  // mid/min branches circulate.
  auto cfg = quickConfig(Protocol::kGlr);
  const auto r = runScenario(cfg);
  EXPECT_LT(r.avgPeakStorage, 10.0);
}

TEST(Scenario, StorageLimitReducesEpidemicDelivery) {
  auto cfg = quickConfig(Protocol::kEpidemic);
  cfg.numMessages = 60;
  const auto unlimited = runScenario(cfg);
  cfg.storageLimit = 5;
  const auto limited = runScenario(cfg);
  EXPECT_LT(limited.deliveryRatio, unlimited.deliveryRatio);
}

TEST(Scenario, CustodyTogglePlumbs) {
  auto cfg = quickConfig(Protocol::kGlr);
  cfg.custody = false;
  const auto r = runScenario(cfg);
  EXPECT_EQ(r.glrCustodyAcksSent, 0u);
  cfg.custody = true;
  const auto r2 = runScenario(cfg);
  EXPECT_GT(r2.glrCustodyAcksSent, 0u);
}

TEST(Scenario, SeedsRunProducesDistinctResults) {
  auto cfg = quickConfig(Protocol::kGlr);
  const auto rs = runScenarioSeeds(cfg, 3);
  ASSERT_EQ(rs.size(), 3u);
  const auto lat = metricAcross(rs, &ScenarioResult::avgLatency);
  EXPECT_EQ(lat.size(), 3u);
  // At least two seeds differ (the scenario is stochastic).
  EXPECT_TRUE(lat[0] != lat[1] || lat[1] != lat[2]);
}

TEST(Scenario, BadConfigThrows) {
  ScenarioConfig cfg;
  cfg.numNodes = 1;
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
  cfg.numNodes = 10;
  cfg.trafficNodes = 20;
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(protocolName(Protocol::kGlr), "GLR");
  EXPECT_STREQ(protocolName(Protocol::kEpidemic), "Epidemic");
  EXPECT_STREQ(protocolName(Protocol::kDirectDelivery), "DirectDelivery");
  EXPECT_STREQ(protocolName(Protocol::kSprayAndWait), "SprayAndWait");
}

TEST(Metrics, DeliveryBookkeeping) {
  const auto msg = [](int src, int seq, double created) {
    glr::dtn::Message m;
    m.id = {src, seq};
    m.srcNode = src;
    m.created = created;
    return m;
  };
  MetricsCollector m;
  m.onCreated(msg(1, 1, 10.0));
  m.onCreated(msg(1, 2, 11.0));
  m.onDelivered(msg(1, 1, 10.0), 30.0, 4);
  EXPECT_EQ(m.createdCount(), 2u);
  EXPECT_EQ(m.deliveredCount(), 1u);
  EXPECT_DOUBLE_EQ(m.deliveryRatio(), 0.5);
  EXPECT_DOUBLE_EQ(m.avgLatency(), 20.0);
  EXPECT_DOUBLE_EQ(m.avgHops(), 4.0);
  // The sketches see the same single latency.
  EXPECT_EQ(m.latencyMoments().count(), 1u);
  EXPECT_DOUBLE_EQ(m.latencyMoments().mean(), 20.0);
  EXPECT_DOUBLE_EQ(m.latencySketch().quantile(0.5), 20.0);
  // Duplicate delivery ignored for aggregates.
  m.onDelivered(msg(1, 1, 10.0), 50.0, 9);
  EXPECT_EQ(m.deliveredCount(), 1u);
  EXPECT_EQ(m.duplicateDeliveries(), 1u);
  EXPECT_DOUBLE_EQ(m.avgLatency(), 20.0);
  EXPECT_EQ(m.latencyMoments().count(), 1u);
  // Unknown message ignored defensively.
  m.onDelivered(msg(9, 9, 55.0), 60.0, 1);
  EXPECT_EQ(m.deliveredCount(), 1u);
}

TEST(Metrics, NamedCounters) {
  MetricsCollector m;
  EXPECT_EQ(m.counter("x"), 0u);
  m.count("x");
  m.count("x", 4);
  EXPECT_EQ(m.counter("x"), 5u);
}

// ---------------------------------------------------------------------------
// Scenario-diversity plumbing: the new MobilitySpec / ChurnSpec /
// radius-spread knobs must (a) at their defaults leave the config that
// KernelRegression pins unchanged — this guards the config refactor that
// threaded them through scenario.cpp — and (b) when enabled, actually
// change the simulation.
// ---------------------------------------------------------------------------

TEST(ScenarioDiversity, DefaultKnobsReproduceKernelGoldenBitIdentically) {
  // Spelled out at their defaults, the knobs digest like a default config,
  // so the spelled-out scenario is the one KernelRegression pins.
  ScenarioConfig cfg;
  cfg.mobility.model = "waypoint";
  cfg.churn = glr::experiment::churnPreset("none");
  cfg.radiusSpreadMin = 1.0;
  cfg.radiusSpreadMax = 1.0;
  EXPECT_EQ(glr::ckpt::configDigest(cfg),
            glr::ckpt::configDigest(ScenarioConfig{}));
}

TEST(ScenarioDiversity, MobilityModelKnobChangesTheRun) {
  auto base = quickConfig(Protocol::kGlr);
  const auto waypoint = runScenario(base);
  base.mobility.model = "direction";
  const auto direction = runScenario(base);
  EXPECT_NE(waypoint.eventsExecuted, direction.eventsExecuted);
  base.mobility.model = "does_not_exist";
  EXPECT_THROW((void)runScenario(base), std::invalid_argument);
}

TEST(ScenarioDiversity, ChurnDegradesButDoesNotKillDelivery) {
  auto cfg = quickConfig(Protocol::kEpidemic);
  const auto calm = runScenario(cfg);
  cfg.churn = glr::experiment::churnPreset("heavy");
  const auto stormy = runScenario(cfg);
  EXPECT_GT(stormy.macRadioDownDrops, 0u);
  EXPECT_LE(stormy.deliveryRatio, calm.deliveryRatio);
  EXPECT_GT(stormy.deliveryRatio, 0.0);  // epidemic survives heavy churn
}

TEST(ScenarioDiversity, ChurnPresetsPlumb) {
  EXPECT_FALSE(glr::experiment::churnPreset("none").enabled);
  EXPECT_TRUE(glr::experiment::churnPreset("light").enabled);
  EXPECT_TRUE(glr::experiment::churnPreset("moderate").enabled);
  EXPECT_TRUE(glr::experiment::churnPreset("heavy").enabled);
  EXPECT_THROW((void)glr::experiment::churnPreset("typo"),
               std::invalid_argument);
}

TEST(ScenarioDiversity, HeterogeneousRadiiChangeTheRun) {
  auto cfg = quickConfig(Protocol::kGlr);
  const auto uniform = runScenario(cfg);
  cfg.radiusSpreadMin = 0.7;
  cfg.radiusSpreadMax = 1.3;
  const auto spread = runScenario(cfg);
  EXPECT_NE(uniform.eventsExecuted, spread.eventsExecuted);
  cfg.radiusSpreadMin = 1.5;  // min > max rejected
  cfg.radiusSpreadMax = 1.3;
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

TEST(ScenarioDiversity, EveryMobilityModelRunsEveryProtocol) {
  for (const std::string model :
       {"direction", "gauss_markov", "manhattan", "cluster"}) {
    for (const Protocol p : {Protocol::kGlr, Protocol::kEpidemic,
                             Protocol::kSprayAndWait}) {
      SCOPED_TRACE(model + std::string{" x "} + protocolName(p));
      auto cfg = quickConfig(p);
      cfg.numMessages = 15;
      cfg.simTime = 150.0;
      cfg.mobility.model = model;
      const auto r = runScenario(cfg);
      EXPECT_GT(r.created, 0u);
      EXPECT_GT(r.eventsExecuted, 0u);
    }
  }
}

TEST(Tables, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmtPct(0.979, 1), "97.9%");
  glr::stats::ConfidenceInterval ci;
  ci.mean = 120.2;
  ci.halfwidth = 8.5;
  ci.samples = 10;
  EXPECT_EQ(fmtCI(ci, 1), "120.2 ± 8.5");
  ci.samples = 1;
  EXPECT_EQ(fmtCI(ci, 1), "120.2");
}

}  // namespace
