// Tests for the overload-survival layer: the pluggable traffic-generator
// subsystem (experiment/traffic.*), the fault-injection layer (net/faults.*),
// and GLR's buffer-pressure custody controls.
//
// The anchor test ties every new knob, spelled out at its default, to the
// config the kernel golden pins — the refactor that moved the paper
// workload out of runScenario and threaded TrafficSpec / FaultSpec /
// custodyWatermark / congestionControl through the config must be invisible
// until a knob is turned.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/scenario.hpp"
#include "experiment/traffic.hpp"
#include "mobility/registry.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "routing/dtn_agent.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::TrafficProcess;
using glr::experiment::TrafficSpec;
using glr::sim::Rng;
using glr::sim::Simulator;

// ---------------------------------------------------------------------------
// Differential golden: all new knobs at defaults == the pinned kernel run.
// ---------------------------------------------------------------------------

TEST(TrafficOverload, DefaultKnobsReproduceKernelGoldenBitIdentically) {
  // Spelled out at their defaults, the overload-survival knobs digest like
  // a default config, so the spelled-out scenario is the one
  // KernelRegression pins.
  ScenarioConfig cfg;
  cfg.traffic.model = "paper";
  cfg.traffic.rate = 4.0;
  cfg.traffic.maxMessages = 0;
  cfg.traffic.onMean = 10.0;
  cfg.traffic.offMean = 30.0;
  cfg.traffic.hotspotFraction = 0.1;
  cfg.traffic.hotspotWeight = 0.9;
  cfg.traffic.flashStart = 0.4;
  cfg.traffic.flashDuration = 0.1;
  cfg.traffic.flashMultiplier = 8.0;
  cfg.faults.enabled = false;
  cfg.faults.params = glr::net::FaultProcess::Params{};
  cfg.custodyWatermark = 0;
  cfg.congestionControl = false;
  EXPECT_EQ(glr::ckpt::configDigest(cfg),
            glr::ckpt::configDigest(ScenarioConfig{}));
}

// ---------------------------------------------------------------------------
// TrafficProcess unit tests against a counting stub agent.
// ---------------------------------------------------------------------------

/// Records originations (their destinations and times) without any network
/// below.
class CountingAgent final : public glr::routing::DtnAgent {
 public:
  explicit CountingAgent(Simulator& sim, std::vector<double>* times)
      : sim_(sim), times_(times) {}
  void start() override {}
  void onPacket(const glr::net::Packet&, int) override {}
  void originate(int dstNode) override {
    destinations.push_back(dstNode);
    if (times_ != nullptr) times_->push_back(sim_.now());
  }
  [[nodiscard]] std::size_t storageUsed() const override { return 0; }
  [[nodiscard]] std::size_t storagePeak() const override { return 0; }

  std::vector<int> destinations;

 private:
  Simulator& sim_;
  std::vector<double>* times_;
};

struct Harness {
  Simulator sim;
  std::vector<double> times;
  std::vector<std::unique_ptr<CountingAgent>> owned;
  std::vector<glr::routing::DtnAgent*> agents;

  explicit Harness(int n) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<CountingAgent>(sim, &times));
      agents.push_back(owned.back().get());
    }
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& a : owned) t += a->destinations.size();
    return t;
  }
};

TrafficProcess::Params makeParams(const TrafficSpec& spec, int trafficNodes,
                                  double start = 10.0,
                                  double horizon = 110.0) {
  TrafficProcess::Params p;
  p.spec = spec;
  p.start = start;
  p.horizon = horizon;
  p.trafficNodes = trafficNodes;
  return p;
}

TEST(TrafficProcessTest, PoissonCountMatchesOfferedLoad) {
  Harness h{20};
  TrafficSpec spec;
  spec.model = "poisson";
  spec.rate = 50.0;  // 50 msg/s over a 100 s window -> ~5000
  TrafficProcess proc{h.sim, h.agents, makeParams(spec, 20), Rng{123}};
  proc.start();
  h.sim.run(200.0);
  EXPECT_GT(h.total(), 4200u);
  EXPECT_LT(h.total(), 5800u);
  EXPECT_EQ(proc.generated(), h.total());
  // Arrivals respect the [start, horizon) window.
  for (const double t : h.times) {
    EXPECT_GE(t, 10.0);
    EXPECT_LT(t, 110.0);
  }
}

TEST(TrafficProcessTest, MaxMessagesCapsEveryModel) {
  for (const char* model : {"poisson", "onoff", "hotspot", "flashcrowd"}) {
    SCOPED_TRACE(model);
    Harness h{12};
    TrafficSpec spec;
    spec.model = model;
    spec.rate = 80.0;  // would generate thousands without the cap
    spec.maxMessages = 100;
    TrafficProcess proc{h.sim, h.agents, makeParams(spec, 12), Rng{9}};
    proc.start();
    h.sim.run(200.0);
    EXPECT_EQ(proc.generated(), 100u);
    EXPECT_EQ(h.total(), 100u);
  }
}

TEST(TrafficProcessTest, DeterministicForSameSeedAcrossModels) {
  for (const char* model : {"poisson", "onoff", "hotspot", "flashcrowd"}) {
    SCOPED_TRACE(model);
    TrafficSpec spec;
    spec.model = model;
    spec.rate = 30.0;
    std::vector<std::vector<double>> runs;
    for (int rep = 0; rep < 2; ++rep) {
      Harness h{15};
      TrafficProcess proc{h.sim, h.agents, makeParams(spec, 15), Rng{77}};
      proc.start();
      h.sim.run(200.0);
      runs.push_back(h.times);
    }
    EXPECT_EQ(runs[0], runs[1]);  // identical arrival times, message for message

    Harness other{15};
    TrafficProcess proc{other.sim, other.agents, makeParams(spec, 15),
                        Rng{78}};
    proc.start();
    other.sim.run(200.0);
    EXPECT_NE(runs[0], other.times);  // a different seed actually differs
  }
}

TEST(TrafficProcessTest, OnOffLongRunRateMatchesOffer) {
  Harness h{20};
  TrafficSpec spec;
  spec.model = "onoff";
  spec.rate = 20.0;
  spec.onMean = 10.0;
  spec.offMean = 30.0;
  // Long window so per-source ON/OFF cycles average out.
  TrafficProcess proc{h.sim, h.agents, makeParams(spec, 20, 10.0, 810.0),
                      Rng{5}};
  proc.start();
  h.sim.run(1000.0);
  const double expected = 20.0 * 800.0;
  EXPECT_GT(static_cast<double>(h.total()), 0.6 * expected);
  EXPECT_LT(static_cast<double>(h.total()), 1.4 * expected);
}

TEST(TrafficProcessTest, HotspotSkewsSenders) {
  Harness h{20};
  TrafficSpec spec;
  spec.model = "hotspot";
  spec.rate = 40.0;
  spec.hotspotFraction = 0.1;  // 2 hot senders out of 20
  spec.hotspotWeight = 0.9;
  TrafficProcess proc{h.sim, h.agents, makeParams(spec, 20), Rng{31}};
  proc.start();
  h.sim.run(200.0);
  const std::size_t hot =
      h.owned[0]->destinations.size() + h.owned[1]->destinations.size();
  // The two hot senders carry ~90% + their uniform share of the rest.
  EXPECT_GT(static_cast<double>(hot),
            0.75 * static_cast<double>(h.total()));
}

TEST(TrafficProcessTest, FlashCrowdSpikesInsideItsWindow) {
  Harness h{20};
  TrafficSpec spec;
  spec.model = "flashcrowd";
  spec.rate = 10.0;
  spec.flashStart = 0.4;     // window [10, 110): flash = [50, 60)
  spec.flashDuration = 0.1;
  spec.flashMultiplier = 8.0;
  TrafficProcess proc{h.sim, h.agents, makeParams(spec, 20), Rng{64}};
  proc.start();
  h.sim.run(200.0);
  double inFlash = 0;
  double outside = 0;
  for (const double t : h.times) {
    if (t >= 50.0 && t < 60.0) {
      inFlash += 1;
    } else {
      outside += 1;
    }
  }
  const double flashRate = inFlash / 10.0;
  const double baseRate = outside / 90.0;
  EXPECT_GT(flashRate, 3.0 * baseRate);  // ~8x in expectation
  EXPECT_GT(proc.thinned(), 0u);  // thinning actually rejected candidates
}

TEST(TrafficProcessTest, DestinationsStayInsideTheTrafficPopulation) {
  // GLR records hello locations only for ids below trafficNodes
  // (GlrParams::destinationIds), so every workload must send from and to
  // [0, trafficNodes) only, and never to the sender itself.
  constexpr int kTraffic = 6;
  const auto expectContract = [&](const Harness& h) {
    EXPECT_GT(h.total(), 0u);
    for (std::size_t src = 0; src < h.owned.size(); ++src) {
      SCOPED_TRACE(src);
      const std::vector<int>& dsts = h.owned[src]->destinations;
      if (src >= kTraffic) {
        EXPECT_TRUE(dsts.empty());
      }
      for (const int dst : dsts) {
        EXPECT_GE(dst, 0);
        EXPECT_LT(dst, kTraffic);
        EXPECT_NE(dst, static_cast<int>(src));
      }
    }
  };
  {
    SCOPED_TRACE("paper");
    Harness h{20};
    glr::experiment::schedulePaperWorkload(h.sim, h.agents, kTraffic, 200,
                                           10.0, 0.5, Rng{3});
    h.sim.run(200.0);
    EXPECT_EQ(h.total(), 200u);
    expectContract(h);
  }
  for (const char* model : {"poisson", "onoff", "hotspot", "flashcrowd"}) {
    SCOPED_TRACE(model);
    Harness h{20};
    TrafficSpec spec;
    spec.model = model;
    spec.rate = 30.0;
    TrafficProcess proc{h.sim, h.agents, makeParams(spec, kTraffic), Rng{17}};
    proc.start();
    h.sim.run(200.0);
    expectContract(h);
  }
}

TEST(TrafficProcessTest, ValidationRejectsBadSpecs) {
  Harness h{10};
  const auto make = [&](const TrafficSpec& spec) {
    TrafficProcess proc{h.sim, h.agents, makeParams(spec, 10), Rng{1}};
  };
  TrafficSpec spec;
  spec.model = "does_not_exist";
  EXPECT_THROW(make(spec), std::invalid_argument);
  spec.model = "poisson";
  spec.rate = 0.0;
  EXPECT_THROW(make(spec), std::invalid_argument);
  spec.rate = 4.0;
  spec.model = "onoff";
  spec.onMean = 0.0;
  EXPECT_THROW(make(spec), std::invalid_argument);
  spec.onMean = 10.0;
  spec.model = "hotspot";
  spec.hotspotFraction = 0.0;
  EXPECT_THROW(make(spec), std::invalid_argument);
  spec.hotspotFraction = 0.1;
  spec.model = "flashcrowd";
  spec.flashStart = 0.7;
  spec.flashDuration = 0.5;  // start + duration > 1
  EXPECT_THROW(make(spec), std::invalid_argument);

  // Bad windows / populations.
  spec = TrafficSpec{};
  spec.model = "poisson";
  EXPECT_THROW(
      (TrafficProcess{h.sim, h.agents, makeParams(spec, 1), Rng{1}}),
      std::invalid_argument);
  EXPECT_THROW(
      (TrafficProcess{h.sim, h.agents, makeParams(spec, 10, 50.0, 50.0),
                      Rng{1}}),
      std::invalid_argument);

  // An unknown model is also rejected end-to-end by the scenario driver.
  ScenarioConfig cfg;
  cfg.numNodes = 12;
  cfg.trafficNodes = 10;
  cfg.simTime = 30.0;
  cfg.traffic.model = "typo";
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end overload behavior: watermark custody, congestion control.
// ---------------------------------------------------------------------------

ScenarioConfig saturatedGlrConfig() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 20;
  cfg.trafficNodes = 18;
  cfg.radius = 150.0;
  cfg.simTime = 120.0;
  cfg.storageLimit = 16;
  cfg.queueLimit = 40;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 30.0;  // far past what this world can carry
  cfg.seed = 11;
  return cfg;
}

TEST(OverloadBehavior, WatermarkRefusesCustodyUnderSaturation) {
  auto cfg = saturatedGlrConfig();
  cfg.custodyWatermark = 6;
  const auto r = runScenario(cfg);
  EXPECT_GT(r.custodyRefusals, 0u);  // the watermark actually bites
  EXPECT_GT(r.delivered, 0u);       // and the network still delivers
  // Refusals never exceed received custody transfers.
  EXPECT_LE(r.glrCustodyAcksSent + r.custodyRefusals, r.glrDataReceived);
}

TEST(OverloadBehavior, WatermarkOffNeverRefuses) {
  const auto r = runScenario(saturatedGlrConfig());
  EXPECT_EQ(r.custodyRefusals, 0u);
}

TEST(OverloadBehavior, CongestionControlShapesASaturatedRun) {
  auto cfg = saturatedGlrConfig();
  const auto fixedWindow = runScenario(cfg);
  cfg.congestionControl = true;
  const auto aimd = runScenario(cfg);
  // The AIMD window replaces the fixed custody window, which must be
  // observable under saturation; both variants keep delivering.
  EXPECT_NE(fixedWindow.eventsExecuted, aimd.eventsExecuted);
  EXPECT_GT(fixedWindow.delivered, 0u);
  EXPECT_GT(aimd.delivered, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection end-to-end.
// ---------------------------------------------------------------------------

TEST(FaultInjection, FullCorruptionKillsDeliveryAndIsCounted) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.numNodes = 16;
  cfg.trafficNodes = 14;
  cfg.numMessages = 30;
  cfg.radius = 150.0;
  cfg.simTime = 120.0;
  cfg.seed = 3;
  cfg.faults.enabled = true;
  cfg.faults.params.corruptProb = 1.0;  // every delivery fails its checksum
  const auto r = runScenario(cfg);
  EXPECT_GT(r.created, 0u);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_GT(r.faultFrameDrops, 0u);
}

TEST(FaultInjection, BurstLossDegradesButDoesNotKillDelivery) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.numNodes = 16;
  cfg.trafficNodes = 14;
  cfg.numMessages = 30;
  cfg.radius = 150.0;
  cfg.simTime = 180.0;
  cfg.seed = 3;
  const auto clean = runScenario(cfg);
  cfg.faults.enabled = true;
  cfg.faults.params.burstRate = 0.1;
  cfg.faults.params.burstMean = 10.0;
  cfg.faults.params.lossProb = 0.5;
  const auto lossy = runScenario(cfg);
  EXPECT_GT(lossy.faultFrameDrops, 0u);
  EXPECT_GT(lossy.delivered, 0u);  // DTN retries ride out the bursts
  EXPECT_LE(lossy.delivered, clean.delivered);
}

TEST(FaultInjection, StallsGateRadiosLikeChurn) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 16;
  cfg.trafficNodes = 14;
  cfg.numMessages = 30;
  cfg.radius = 150.0;
  cfg.simTime = 180.0;
  cfg.seed = 5;
  cfg.faults.enabled = true;
  cfg.faults.params.stallRate = 0.2;
  cfg.faults.params.stallMean = 8.0;
  const auto r = runScenario(cfg);
  // Stalled radios refuse sends through the same counted gate churn uses.
  EXPECT_GT(r.macRadioDownDrops, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(FaultInjection, BadParamsThrow) {
  glr::sim::Simulator sim;
  glr::phy::TwoRayGround model;
  glr::phy::RadioParams radio;
  glr::net::World world{sim, model, radio, glr::mac::MacParams{}};
  world.addNode(
      std::make_unique<glr::mobility::StaticMobility>(glr::geom::Point2{}),
      Rng{1});
  glr::net::FaultProcess::Params p;
  p.lossProb = 1.5;
  EXPECT_THROW((glr::net::FaultProcess{world, p, Rng{1}}),
               std::invalid_argument);
  p = {};
  p.burstRate = -1.0;
  EXPECT_THROW((glr::net::FaultProcess{world, p, Rng{1}}),
               std::invalid_argument);
  p = {};
  p.stallRate = 1.0;
  p.stallMean = 0.0;
  EXPECT_THROW((glr::net::FaultProcess{world, p, Rng{1}}),
               std::invalid_argument);
}

}  // namespace
