// Hot-path guarantees: the epoch position cache is bit-identical to asking
// the mobility models directly (for every registered model, under repeated
// same-time queries and radio churn), and the steady-state beaconing / MAC /
// channel path and the route check's knowledge + spanner star perform zero
// heap allocations (counted by overriding the global allocator in this
// binary).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../bench/counting_allocator.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "geometry/delaunay.hpp"
#include "mobility/mobility.hpp"
#include "mobility/registry.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::benchsupport::allocCount;

using glr::geom::Point2;
using glr::mac::MacParams;
using glr::mobility::ModelParams;
using glr::net::NeighborService;
using glr::net::Packet;
using glr::net::World;
using glr::phy::RadioParams;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::SimTime;
using glr::sim::Simulator;

// ---------------------------------------------------------------------------
// Epoch position cache vs. direct mobility queries.
// ---------------------------------------------------------------------------

/// One node per registered mobility model in a World, and an identically
/// seeded reference model per node outside it. World::positionOf must match
/// the reference at every query — including repeated queries at one time
/// (served from the cache) and across radio churn.
TEST(PositionCache, MatchesDirectQueriesForAllRegisteredModels) {
  const auto names = glr::mobility::mobilityModelNames();
  ASSERT_FALSE(names.empty());

  Simulator sim;
  TwoRayGround model;
  RadioParams radio;
  World world{sim, model, radio, MacParams{}};

  ModelParams params;
  params.area = {1000.0, 500.0};
  params.speedMin = 1.0;
  params.speedMax = 15.0;
  params.pause = 0.5;
  params.home = {400.0, 250.0};

  std::vector<std::unique_ptr<glr::mobility::MobilityModel>> reference;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Point2 start{100.0 + 50.0 * static_cast<double>(i), 200.0};
    const Rng rng{1000 + i};
    world.addNode(
        glr::mobility::makeMobilityModel(names[i], params, start, rng),
        Rng{2000 + i});
    reference.push_back(
        glr::mobility::makeMobilityModel(names[i], params, start, rng));
  }

  // Non-decreasing query schedule with duplicate times; every event queries
  // the world twice (second hit must come from the cache) and the reference
  // once per event (a same-time re-query must be an identity for every
  // model — the property the cache rests on).
  const std::vector<SimTime> times = {0.0, 0.0,  0.4, 1.1, 1.1, 1.1, 2.7,
                                      5.0, 5.0,  8.3, 12.9, 12.9, 20.0};
  for (const SimTime t : times) {
    sim.scheduleAt(t, [&world, &reference, &names] {
      for (std::size_t i = 0; i < names.size(); ++i) {
        const Point2 direct =
            reference[i]->positionAt(world.sim().now());
        const Point2 first = world.positionOf(static_cast<int>(i));
        const Point2 second = world.positionOf(static_cast<int>(i));
        EXPECT_EQ(first, direct) << names[i];
        EXPECT_EQ(second, direct) << names[i] << " (cached re-query)";
      }
    });
  }
  // Churn mid-epoch: radio state must not perturb positions or the cache.
  sim.scheduleAt(6.0, [&world] { world.setRadioUp(1, false); });
  sim.scheduleAt(10.0, [&world] { world.setRadioUp(1, true); });
  sim.run();
  EXPECT_EQ(sim.now(), 20.0);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state for the beaconing / MAC / channel path.
// ---------------------------------------------------------------------------

/// Minimal agent that runs only the neighbor service (the paper's IMEP-like
/// hello layer) — the traffic every scenario pays for continuously.
class BeaconAgent final : public glr::net::Agent {
 public:
  BeaconAgent(World& world, int self, NeighborService::Params params)
      : service_(world.sim(), world.macOf(self), self,
                 [&world, self] { return world.positionOf(self); }, params,
                 Rng{700 + static_cast<std::uint64_t>(self)}) {}

  void start() override { service_.start(); }
  void onPacket(const Packet& p, int from) override {
    service_.handlePacket(p, from);
  }

  const NeighborService& service() const { return service_; }

 private:
  NeighborService service_;
};

TEST(ZeroAllocSteadyState, BeaconingMacChannelPathDoesNotTouchTheAllocator) {
  Simulator sim;
  sim.reserve(1024, 64);
  TwoRayGround model;
  RadioParams radio;
  radio.nominalRange = 250.0;
  World world{sim, model, radio, MacParams{}};

  // A line of static nodes 150 m apart: every node has 2-6 hello neighbors,
  // the topology (and thus table/buffer sizes) is in steady state once all
  // tables are warm.
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) {
    world.addNode(std::make_unique<glr::mobility::StaticMobility>(
                      Point2{150.0 * i, 0.0}),
                  Rng{900 + static_cast<std::uint64_t>(i)});
  }
  NeighborService::Params params;
  params.helloInterval = 0.25;  // dense beaconing: many cycles per second
  params.expiry = 0.75;
  for (int i = 0; i < kNodes; ++i) {
    world.setAgent(i, std::make_unique<BeaconAgent>(world, i, params));
  }
  world.start();

  // Warm-up: tables fill, rings/slabs/arenas grow to their working set.
  sim.run(30.0);

  const long long before = allocCount();
  sim.run(60.0);
  const long long delta = allocCount() - before;
  EXPECT_EQ(delta, 0)
      << "steady-state beaconing allocated " << delta
      << " times in 30 sim-seconds; the hello/MAC/channel hot path must be "
         "allocation-free (payload arenas, ring deques, epoch cache)";
}

/// The route check's per-node geometry: gathering a node's 2-hop knowledge
/// into a reused vector and computing its Delaunay star. Once the buffers
/// and per-thread tables have grown, neither touches the allocator.
TEST(ZeroAllocSteadyState, KnowledgeAndStarReuseTheirBuffers) {
  Simulator sim;
  sim.reserve(1024, 64);
  TwoRayGround model;
  RadioParams radio;
  radio.nominalRange = 250.0;
  World world{sim, model, radio, MacParams{}};

  // A jittered 4x4 grid, 120 m apart: general position, 2-hop views of up
  // to the whole grid.
  constexpr int kNodes = 16;
  Rng jitter{31};
  for (int i = 0; i < kNodes; ++i) {
    world.addNode(std::make_unique<glr::mobility::StaticMobility>(
                      Point2{120.0 * (i % 4) + jitter.uniform(-20, 20),
                             120.0 * (i / 4) + jitter.uniform(-20, 20)}),
                  Rng{900 + static_cast<std::uint64_t>(i)});
  }
  std::vector<const BeaconAgent*> agents;
  for (int i = 0; i < kNodes; ++i) {
    auto agent =
        std::make_unique<BeaconAgent>(world, i, NeighborService::Params{});
    agents.push_back(agent.get());
    world.setAgent(i, std::move(agent));
  }
  world.start();
  sim.run(5.0);

  std::vector<glr::spanner::KnownNode> known;
  std::vector<Point2> view;
  std::vector<int> star;
  std::size_t starEdges = 0;
  const auto routeCheckGeometry = [&] {
    for (int i = 0; i < kNodes; ++i) {
      agents[static_cast<std::size_t>(i)]->service().knowledge(known);
      view.assign(1, world.positionOf(i));
      for (const auto& kn : known) view.push_back(kn.pos);
      ASSERT_TRUE(glr::geom::Delaunay::starInto(star, view)) << "node " << i;
      starEdges += star.size();
    }
  };
  routeCheckGeometry();  // warm: buffers and tables grow to the working set

  long long allocs = 0;
  for (int step = 1; step <= 10; ++step) {
    sim.run(5.0 + step);
    const long long before = allocCount();
    routeCheckGeometry();
    allocs += allocCount() - before;
  }
  EXPECT_GT(starEdges, 0u);
  EXPECT_EQ(allocs, 0) << "knowledge + star allocated " << allocs
                       << " times over 10 warm rounds of " << kNodes
                       << " route checks";
}

/// The golden mid-size GLR scenario still runs correctly in this binary
/// (with the counting allocator installed) — and a repeat run allocates
/// strictly less than a cold run, because the payload arenas and builder
/// scratch persist per thread. This is the regression guard the CI heap
/// smoke relies on (bench_hotpath --max-allocs pins the absolute count).
TEST(ZeroAllocSteadyState, RepeatScenarioAllocatesLessThanColdRun) {
  glr::experiment::ScenarioConfig cfg;
  cfg.simTime = 60.0;
  cfg.numMessages = 30;
  cfg.numNodes = 30;
  cfg.trafficNodes = 20;
  cfg.seed = 7;

  const long long t0 = allocCount();
  const auto cold = glr::experiment::runScenario(cfg);
  const long long coldAllocs = allocCount() - t0;

  const long long t1 = allocCount();
  const auto warm = glr::experiment::runScenario(cfg);
  const long long warmAllocs = allocCount() - t1;

  EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(cold, warm));
  EXPECT_LT(warmAllocs, coldAllocs);
}

/// Tracing on: the flight recorder allocates only its fixed ring, file
/// buffer and writer thread at construction — recording hundreds of
/// thousands of events adds nothing. A warm traced run may therefore
/// allocate only a small constant more than a warm untraced run, and the
/// simulation outcome must be untouched by observation.
TEST(ZeroAllocSteadyState, TracingOnAllocatesOnlyTheFixedRecorderSetup) {
  glr::experiment::ScenarioConfig cfg;
  cfg.simTime = 60.0;
  cfg.numMessages = 30;
  cfg.numNodes = 30;
  cfg.trafficNodes = 20;
  cfg.seed = 7;

  // Warm both paths first so arenas/scratch are steady.
  (void)glr::experiment::runScenario(cfg);
  const long long t0 = allocCount();
  const auto untraced = glr::experiment::runScenario(cfg);
  const long long untracedAllocs = allocCount() - t0;

  const std::string tracePath = "test_hotpath_trace.bin";
  cfg.tracePath = tracePath;
  (void)glr::experiment::runScenario(cfg);
  const long long t1 = allocCount();
  auto traced = glr::experiment::runScenario(cfg);
  const long long tracedAllocs = allocCount() - t1;
  std::remove(tracePath.c_str());

  EXPECT_GT(traced.traceEventsRecorded, 1000u);
  // Fixed recorder setup: ring vector, stdio buffer, thread state, path
  // strings. Generously 256 allocations — but NOT proportional to the
  // event count, which is what this pin is about.
  EXPECT_LE(tracedAllocs, untracedAllocs + 256)
      << "tracing-on run allocated " << tracedAllocs - untracedAllocs
      << " more than tracing-off; the record() hot path must stay "
         "allocation-free (pre-reserved SPSC ring)";

  // Observation must not perturb the simulation.
  traced.traceEventsRecorded = 0;
  EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(traced, untraced));
}

}  // namespace
