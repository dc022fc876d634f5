// End-to-end protocol tests on small controlled scenarios: GLR delivery
// over multi-hop chains, custody behaviour, copy-count decisions, location
// modes, and the epidemic/direct/spray baselines.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "closure_sink.hpp"
#include "core/glr_agent.hpp"
#include "dtn/metrics.hpp"
#include "mobility/mobility.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "routing/direct.hpp"
#include "routing/epidemic.hpp"
#include "routing/spray_wait.hpp"
#include "sim/rng.hpp"

namespace {

using glr::core::GlrAgent;
using glr::core::GlrParams;
using glr::core::LocationMode;
using glr::dtn::MetricsCollector;
using glr::geom::Point2;
using glr::mobility::Area;
using glr::mobility::MobilityModel;
using glr::mobility::RandomWaypoint;
using glr::mobility::StaticMobility;
using glr::net::World;
using glr::phy::RadioParams;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::Simulator;

std::vector<std::unique_ptr<MobilityModel>> staticModels(
    const std::vector<Point2>& positions) {
  std::vector<std::unique_ptr<MobilityModel>> models;
  for (const Point2& pos : positions) {
    models.push_back(std::make_unique<StaticMobility>(pos));
  }
  return models;
}

/// Harness with one mobility model per node (static by default) and
/// pluggable agents.
struct Net {
  Simulator sim;
  glr::test::ClosureSink events{sim};
  TwoRayGround model;
  std::unique_ptr<World> world;
  MetricsCollector metrics;

  explicit Net(const std::vector<Point2>& positions, double range)
      : Net(staticModels(positions), range) {}

  Net(std::vector<std::unique_ptr<MobilityModel>> models, double range) {
    RadioParams radio;
    radio.nominalRange = range;
    world = std::make_unique<World>(sim, model, radio, glr::mac::MacParams{});
    for (std::size_t i = 0; i < models.size(); ++i) {
      world->addNode(std::move(models[i]), Rng{7000 + i});
    }
  }

  GlrParams glrParams(double range) const {
    GlrParams p;
    p.network.numNodes = world->numNodes();
    p.network.radius = range;
    p.network.areaWidth = 1000;
    p.network.areaHeight = 1000;
    return p;
  }

  std::vector<GlrAgent*> addGlrAgents(const GlrParams& p) {
    std::vector<GlrAgent*> out;
    for (std::size_t i = 0; i < world->numNodes(); ++i) {
      auto a = std::make_unique<GlrAgent>(*world, static_cast<int>(i), p,
                                          &metrics, Rng{9000 + i});
      out.push_back(a.get());
      world->setAgent(static_cast<int>(i), std::move(a));
    }
    world->start();
    return out;
  }
};

TEST(GlrProtocol, DirectNeighborDelivery) {
  Net net{{{0, 0}, {100, 0}}, 150.0};
  auto agents = net.addGlrAgents(net.glrParams(150.0));
  net.events.schedule(2.0, [&] { agents[0]->originate(1); });
  net.sim.run(10.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  EXPECT_DOUBLE_EQ(net.metrics.avgHops(), 1.0);
  EXPECT_LT(net.metrics.avgLatency(), 2.0);
}

TEST(GlrProtocol, MultiHopChainDelivery) {
  // 5-node chain, 120 m spacing, 150 m range: strictly multi-hop.
  Net net{{{0, 0}, {120, 0}, {240, 0}, {360, 0}, {480, 0}}, 150.0};
  auto agents = net.addGlrAgents(net.glrParams(150.0));
  net.events.schedule(2.0, [&] { agents[0]->originate(4); });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  EXPECT_DOUBLE_EQ(net.metrics.avgHops(), 4.0);
}

TEST(GlrProtocol, CopyCountFollowsAlgorithm1) {
  Net dense{{{0, 0}, {100, 0}}, 250.0};
  GlrParams p = dense.glrParams(250.0);
  p.network.areaWidth = 1500;
  p.network.areaHeight = 300;
  p.network.numNodes = 50;
  auto agents = dense.addGlrAgents(p);
  EXPECT_EQ(agents[0]->copyCount(), 1);  // 250 m: likely connected

  Net sparse{{{0, 0}, {100, 0}}, 50.0};
  GlrParams p2 = sparse.glrParams(50.0);
  p2.network.areaWidth = 1500;
  p2.network.areaHeight = 300;
  p2.network.numNodes = 50;
  auto agents2 = sparse.addGlrAgents(p2);
  EXPECT_EQ(agents2[0]->copyCount(), 3);  // 50 m: sparse
}

TEST(GlrProtocol, IdleAgentCountsNothing) {
  // Node 1 sits alone and carries no traffic, so it never counts anything
  // and never builds its counter block; node 0 sends one message to node
  // 2, in range, and both of them count.
  Net net{{{0, 0}, {900, 900}, {100, 0}}, 150.0};
  auto agents = net.addGlrAgents(net.glrParams(150.0));
  net.events.schedule(2.0, [&] { agents[0]->originate(2); });
  net.sim.run(30.0);
  ASSERT_EQ(net.metrics.deliveredCount(), 1u);
  const glr::routing::ProtocolCounters zero;
  glr::routing::ProtocolCounters idle;
  agents[1]->harvestCounters(idle);
  EXPECT_EQ(idle, zero);
  EXPECT_EQ(agents[1]->counters(), zero);
  glr::routing::ProtocolCounters sender;
  agents[0]->harvestCounters(sender);
  EXPECT_GT(sender.dataSent, 0u);
  EXPECT_EQ(sender.dataSent, agents[0]->counters().dataSent);
  EXPECT_GT(agents[2]->counters().dataReceived, 0u);
}

TEST(GlrProtocol, MultipleCopiesStoredWithDistinctFlags) {
  Net net{{{0, 0}, {900, 900}}, 50.0};  // isolated nodes: copies stay stored
  GlrParams p = net.glrParams(50.0);
  p.copiesOverride = 3;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(1.0, [&] { agents[0]->originate(1); });
  net.sim.run(5.0);
  EXPECT_EQ(agents[0]->buffer().storeSize(), 3u);
  EXPECT_TRUE(agents[0]->buffer().inStore(
      {{0, 0}, glr::dtn::TreeFlag::kMax}));
  EXPECT_TRUE(agents[0]->buffer().inStore(
      {{0, 0}, glr::dtn::TreeFlag::kMin}));
  EXPECT_TRUE(agents[0]->buffer().inStore(
      {{0, 0}, glr::dtn::TreeFlag::kMid}));
}

TEST(GlrProtocol, CustodyClearsCacheOnAck) {
  Net net{{{0, 0}, {100, 0}, {200, 0}}, 150.0};
  GlrParams p = net.glrParams(150.0);
  p.copiesOverride = 1;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(2.0, [&] { agents[0]->originate(2); });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  // All custody copies cleared along the path after acknowledgements.
  EXPECT_EQ(agents[0]->buffer().size(), 0u);
  EXPECT_EQ(agents[1]->buffer().size(), 0u);
  EXPECT_GE(agents[1]->counters().custodyAcksSent, 1u);
  EXPECT_GE(agents[0]->counters().custodyAcksReceived, 1u);
}

TEST(GlrProtocol, WithoutCustodyNoCacheUsed) {
  Net net{{{0, 0}, {100, 0}, {200, 0}}, 150.0};
  GlrParams p = net.glrParams(150.0);
  p.custodyTransfer = false;
  p.copiesOverride = 1;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(2.0, [&] { agents[0]->originate(2); });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  EXPECT_EQ(agents[0]->counters().custodyAcksReceived, 0u);
  EXPECT_EQ(agents[1]->counters().custodyAcksSent, 0u);
}

TEST(GlrProtocol, StoresWhenPartitionedAndDeliversAfterHealing) {
  // Node 1 is initially out of range of everyone; it "appears" by being a
  // late-started mobile node. We emulate disruption healing with a mobile
  // courier that walks from source side to destination side.
  Simulator sim;
  TwoRayGround model;
  RadioParams radio;
  radio.nominalRange = 100.0;
  World world{sim, model, radio, glr::mac::MacParams{}};
  MetricsCollector metrics;
  glr::test::ClosureSink events{sim};

  // Source at x=0, destination at x=500 (never in range of each other);
  // courier moves 0 -> 500 along x starting at t=10 at 10 m/s.
  world.addNode(std::make_unique<StaticMobility>(Point2{0, 0}), Rng{1});
  world.addNode(std::make_unique<StaticMobility>(Point2{500, 0}), Rng{2});
  class Courier final : public glr::mobility::MobilityModel {
   public:
    Point2 positionAt(glr::sim::SimTime t) override {
      const double x = std::clamp((t - 10.0) * 10.0, 0.0, 500.0);
      return {x, 10.0};
    }
  };
  world.addNode(std::make_unique<Courier>(), Rng{3});

  GlrParams p;
  p.network.numNodes = 3;
  p.network.radius = 100.0;
  p.network.areaWidth = 1000;
  p.network.areaHeight = 1000;
  p.copiesOverride = 1;
  std::vector<GlrAgent*> agents;
  for (int i = 0; i < 3; ++i) {
    auto a = std::make_unique<GlrAgent>(world, i, p, &metrics,
                                        Rng{static_cast<std::uint64_t>(100 + i)});
    agents.push_back(a.get());
    world.setAgent(i, std::move(a));
  }
  world.start();
  events.schedule(1.0, [&] { agents[0]->originate(1); });

  sim.run(20.0);
  EXPECT_EQ(metrics.deliveredCount(), 0u);  // still partitioned-ish
  sim.run(120.0);
  EXPECT_EQ(metrics.deliveredCount(), 1u);  // courier completed the path
}

TEST(GlrProtocol, OracleLocationModeDelivers) {
  Net net{{{0, 0}, {120, 0}, {240, 0}}, 150.0};
  GlrParams p = net.glrParams(150.0);
  p.locationMode = LocationMode::kOracleAll;
  p.copiesOverride = 1;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(2.0, [&] { agents[0]->originate(2); });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
}

TEST(GlrProtocol, NoneKnowModeStillDeliversViaDiffusion) {
  // With hellos exchanging positions, even a random initial guess converges
  // in a small connected network.
  Net net{{{0, 0}, {120, 0}, {240, 0}}, 150.0};
  GlrParams p = net.glrParams(150.0);
  p.locationMode = LocationMode::kNoneKnow;
  p.copiesOverride = 1;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(3.0, [&] { agents[0]->originate(2); });
  net.sim.run(60.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
}

TEST(GlrProtocol, StorageLimitEnforced) {
  Net net{{{0, 0}, {900, 900}}, 50.0};
  GlrParams p = net.glrParams(50.0);
  p.storageLimit = 5;
  p.copiesOverride = 1;
  auto agents = net.addGlrAgents(p);
  net.events.schedule(1.0, [&] {
    for (int k = 0; k < 20; ++k) agents[0]->originate(1);
  });
  net.sim.run(10.0);
  EXPECT_LE(agents[0]->buffer().size(), 5u);
  EXPECT_LE(agents[0]->storagePeak(), 5u);
  EXPECT_GT(agents[0]->buffer().dropCount(), 0u);
}

TEST(GlrProtocol, TrackingOnlyDestinationsChangesNothing) {
  // The location table is read only for a message's destination, so an
  // agent that records hello samples only for ids that can be one
  // (GlrParams::destinationIds) routes exactly like one that records all.
  constexpr int kNodes = 40;
  constexpr int kDestinations = 8;
  const auto waypoints = [] {
    std::vector<std::unique_ptr<MobilityModel>> models;
    Rng rng{2024};
    for (int i = 0; i < kNodes; ++i) {
      const Point2 start{rng.uniform(0, 600), rng.uniform(0, 600)};
      models.push_back(std::make_unique<RandomWaypoint>(
          Area{600, 600}, 1.0, 10.0, 2.0, start,
          rng.fork(static_cast<std::uint64_t>(i) + 1)));
    }
    return models;
  };
  const auto run = [&](Net& net, int destinationIds) {
    GlrParams p = net.glrParams(100.0);
    p.network.areaWidth = 600;
    p.network.areaHeight = 600;
    p.locationEvictAfter = 20.0;
    p.destinationIds = destinationIds;
    auto agents = net.addGlrAgents(p);
    for (int k = 0; k < 40; ++k) {
      const int src = k % kDestinations;
      const int dst = (src + 1 + (k / kDestinations)) % kDestinations;
      net.events.schedule(5.0 + 4.0 * k,
                          [agent = agents[static_cast<std::size_t>(src)], dst] {
                            agent->originate(dst);
                          });
    }
    net.sim.run(200.0);
    return agents;
  };
  Net bounded{waypoints(), 100.0};
  Net unbounded{waypoints(), 100.0};
  const auto kept = run(bounded, kDestinations);
  const auto all = run(unbounded, 0);

  EXPECT_EQ(bounded.sim.eventsExecuted(), unbounded.sim.eventsExecuted());
  EXPECT_GT(bounded.metrics.deliveredCount(), 0u);
  EXPECT_EQ(bounded.metrics.deliveredCount(),
            unbounded.metrics.deliveredCount());
  EXPECT_EQ(bounded.metrics.avgLatency(), unbounded.metrics.avgLatency());
  EXPECT_EQ(bounded.metrics.avgHops(), unbounded.metrics.avgHops());

  std::size_t keptEntries = 0;
  std::size_t allEntries = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& table = kept[i]->locationTable();
    keptEntries += table.size();
    allEntries += all[i]->locationTable().size();
    for (int id = kDestinations; id < kNodes; ++id) {
      EXPECT_FALSE(table.lookup(id).has_value()) << "id " << id;
    }
    for (int id = 0; id < kDestinations; ++id) {
      const auto mine = table.lookup(id);
      const auto theirs = all[i]->locationTable().lookup(id);
      ASSERT_EQ(mine.has_value(), theirs.has_value()) << "id " << id;
      if (!mine.has_value()) continue;
      EXPECT_EQ(mine->pos.x, theirs->pos.x) << "id " << id;
      EXPECT_EQ(mine->pos.y, theirs->pos.y) << "id " << id;
      EXPECT_EQ(mine->at, theirs->at) << "id " << id;
    }
  }
  EXPECT_GT(keptEntries, 0u);
  EXPECT_LT(keptEntries, allEntries);  // the bound actually dropped samples

  EXPECT_THROW(kept[0]->originate(kDestinations), std::invalid_argument);
  EXPECT_THROW(kept[0]->originate(-1), std::invalid_argument);
}

template <typename AgentT, typename ParamsT>
std::vector<AgentT*> addAgents(Net& net, ParamsT params) {
  std::vector<AgentT*> out;
  for (std::size_t i = 0; i < net.world->numNodes(); ++i) {
    auto a = std::make_unique<AgentT>(*net.world, static_cast<int>(i), params,
                                      &net.metrics, Rng{8000 + i});
    out.push_back(a.get());
    net.world->setAgent(static_cast<int>(i), std::move(a));
  }
  net.world->start();
  return out;
}

TEST(Epidemic, SpreadsAndDelivers) {
  Net net{{{0, 0}, {100, 0}, {200, 0}, {300, 0}}, 150.0};
  auto agents =
      addAgents<glr::routing::EpidemicAgent>(net, glr::routing::EpidemicParams{});
  net.events.schedule(2.0, [&] { agents[0]->originate(3); });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  // Epidemic never clears: every node in the chain holds a copy.
  for (auto* a : agents) EXPECT_EQ(a->buffer().size(), 1u);
}

TEST(Epidemic, NoDuplicateStorage) {
  Net net{{{0, 0}, {100, 0}, {100, 80}}, 150.0};
  auto agents =
      addAgents<glr::routing::EpidemicAgent>(net, glr::routing::EpidemicParams{});
  net.events.schedule(2.0, [&] {
    for (int k = 0; k < 5; ++k) agents[0]->originate(2);
  });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 5u);
  for (auto* a : agents) EXPECT_EQ(a->buffer().size(), 5u);
}

TEST(Epidemic, FifoDropUnderStorageLimit) {
  glr::routing::EpidemicParams p;
  p.storageLimit = 3;
  Net net{{{0, 0}, {100, 0}}, 150.0};
  auto agents = addAgents<glr::routing::EpidemicAgent>(net, p);
  net.events.schedule(2.0, [&] {
    for (int k = 0; k < 10; ++k) agents[0]->originate(1);
  });
  net.sim.run(30.0);
  EXPECT_LE(agents[0]->buffer().size(), 3u);
  EXPECT_LE(agents[1]->buffer().size(), 3u);
}

TEST(DirectDelivery, OnlyMeetsDeliver) {
  Net net{{{0, 0}, {100, 0}, {400, 0}}, 150.0};
  auto agents =
      addAgents<glr::routing::DirectDeliveryAgent>(net, glr::routing::DirectParams{});
  net.events.schedule(2.0, [&] {
    agents[0]->originate(1);  // neighbor: deliverable
    agents[0]->originate(2);  // out of range: must wait forever (static)
  });
  net.sim.run(30.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
  EXPECT_EQ(agents[0]->storageUsed(), 1u);  // the unmet destination's message
}

TEST(SprayAndWait, BudgetHalvesAndDelivers) {
  glr::routing::SprayWaitParams p;
  p.copyBudget = 4;
  Net net{{{0, 0}, {100, 0}, {200, 0}, {300, 0}}, 150.0};
  auto agents = addAgents<glr::routing::SprayWaitAgent>(net, p);
  net.events.schedule(2.0, [&] { agents[0]->originate(3); });
  net.sim.run(60.0);
  EXPECT_EQ(net.metrics.deliveredCount(), 1u);
}

}  // namespace
