// Tests for the IMEP-like neighbor/location sensing service on a small
// simulated network: discovery, expiry, 2-hop knowledge, contact events,
// the shared hello neighbor lists and the checkpoint round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "checkpoint/codec.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::geom::Point2;
using glr::mobility::StaticMobility;
using glr::net::NeighborService;
using glr::net::Packet;
using glr::net::World;
using glr::phy::RadioParams;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::SimTime;
using glr::sim::Simulator;

/// Minimal agent that runs only the neighbor service, and records the
/// contacts and location samples the service reports to its owner.
class BeaconAgent final : public glr::net::Agent,
                          public NeighborService::Owner {
 public:
  BeaconAgent(World& world, int self, NeighborService::Params params)
      : world_(world),
        self_(self),
        service_(world.sim(), world.macOf(self), self, *this, params,
                 Rng{500 + static_cast<std::uint64_t>(self)}) {}

  void start() override { service_.start(); }
  void onPacket(const Packet& p, int from) override {
    service_.handlePacket(p, from);
  }

  Point2 helloPosition() override { return world_.positionOf(self_); }
  void onContact(int id) override { contacts.push_back(id); }
  void onLocationSample(int id, Point2 /*pos*/, SimTime /*at*/) override {
    sampleIds.push_back(id);
  }

  NeighborService& service() { return service_; }

  std::vector<int> contacts;
  std::vector<int> sampleIds;

 private:
  World& world_;
  int self_;
  NeighborService service_;
};

struct Harness {
  Simulator sim;
  TwoRayGround model;
  std::unique_ptr<World> world;
  std::vector<BeaconAgent*> agents;

  explicit Harness(const std::vector<Point2>& positions, double range = 250.0,
                   NeighborService::Params params = {}) {
    RadioParams radio;
    radio.nominalRange = range;
    world = std::make_unique<World>(sim, model, radio, glr::mac::MacParams{});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      world->addNode(std::make_unique<StaticMobility>(positions[i]),
                     Rng{900 + i});
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      auto agent = std::make_unique<BeaconAgent>(*world, static_cast<int>(i),
                                                 params);
      agents.push_back(agent.get());
      world->setAgent(static_cast<int>(i), std::move(agent));
    }
    world->start();
  }
};

TEST(Neighbor, DiscoversNodesInRange) {
  Harness h{{{0, 0}, {100, 0}, {600, 0}}};
  h.sim.run(3.0);
  EXPECT_EQ(h.agents[0]->service().currentNeighbors(), (std::vector<int>{1}));
  EXPECT_EQ(h.agents[1]->service().currentNeighbors(), (std::vector<int>{0}));
  EXPECT_TRUE(h.agents[2]->service().currentNeighbors().empty());
  EXPECT_TRUE(h.agents[0]->service().isNeighbor(1));
  EXPECT_FALSE(h.agents[0]->service().isNeighbor(2));
}

TEST(Neighbor, PositionsReported) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(3.0);
  const auto pos = h.agents[0]->service().neighborPosition(1);
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, 100.0, 1e-9);
  EXPECT_FALSE(h.agents[0]->service().neighborPosition(9).has_value());
}

TEST(Neighbor, TwoHopKnowledgeViaPiggyback) {
  // 0 -- 1 -- 2 in a line; 0 and 2 are out of range of each other but learn
  // about each other through 1's hello neighbor list.
  Harness h{{{0, 0}, {200, 0}, {400, 0}}};
  h.sim.run(4.0);
  std::vector<glr::spanner::KnownNode> knowledge;
  h.agents[0]->service().knowledge(knowledge);
  bool saw1 = false, saw2 = false;
  for (const auto& kn : knowledge) {
    if (kn.id == 1) {
      saw1 = true;
      EXPECT_TRUE(kn.oneHop);
    }
    if (kn.id == 2) {
      saw2 = true;
      EXPECT_FALSE(kn.oneHop);
      EXPECT_NEAR(kn.pos.x, 400.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
}

TEST(Neighbor, ContactReportedOncePerContact) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(10.0);
  // Steady beacons refresh the record; they are not re-contacts.
  EXPECT_EQ(h.agents[0]->contacts, (std::vector<int>{1}));
}

TEST(Neighbor, LocationSamplesIncludeTwoHop) {
  Harness h{{{0, 0}, {200, 0}, {400, 0}}};
  h.sim.run(4.0);
  const std::vector<int>& ids = h.agents[0]->sampleIds;
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 1) != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 2) != ids.end());
  // A node never samples itself from the lists its neighbors report.
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 0) == ids.end());
}

TEST(Neighbor, ReceiversShareTheSendersList) {
  // 0 -- 1 -- 2: the two ends hear every hello of the middle node.
  Harness h{{{0, 0}, {200, 0}, {400, 0}}};
  h.sim.run(4.0);
  const glr::net::NeighborList& at0 = h.agents[0]->service().reportedBy(1);
  const glr::net::NeighborList& at2 = h.agents[2]->service().reportedBy(1);
  ASSERT_EQ(at0.size(), 2u);  // node 1 reports both ends
  // One block, not a copy per receiver.
  EXPECT_EQ(at0.begin(), at2.begin());
  EXPECT_TRUE(h.agents[1]->service().reportedBy(1).empty());  // not a peer
}

TEST(Neighbor, StaleRecordDropsItsListAtTheNextSweep) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(3.0);
  EXPECT_FALSE(h.agents[0]->service().reportedBy(1).empty());
  // Node 1 falls silent: node 0's record goes stale after the 2 s expiry,
  // and node 0's next beacon sweep drops the list it held.
  h.world->setRadioUp(1, false);
  h.sim.run(3.0 + 2.0 + 2.0 * 0.75 * 1.1);
  EXPECT_FALSE(h.agents[0]->service().isNeighbor(1));
  EXPECT_TRUE(h.agents[0]->service().reportedBy(1).empty());
}

TEST(Neighbor, SnapshotRestoreKeepsKnowledge) {
  const std::vector<Point2> line{{0, 0}, {200, 0}, {400, 0}, {550, 80}};
  Harness saved{line};
  saved.sim.run(6.0);
  glr::ckpt::Encoder e;
  saved.agents[1]->service().visit(e);

  // A different world at the same clock, whose node 1 knows other nodes
  // until the snapshot overwrites its table.
  Harness restored{{{0, 0}, {150, 0}, {300, 0}, {900, 900}}};
  restored.sim.run(6.0);
  glr::ckpt::Decoder d{e.data().data(), e.data().size(), "neighbor test"};
  restored.agents[1]->service().visit(d);
  d.expectEnd();

  std::vector<glr::spanner::KnownNode> want;
  std::vector<glr::spanner::KnownNode> got;
  saved.agents[1]->service().knowledge(want);
  restored.agents[1]->service().knowledge(got);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GE(want.size(), 3u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << i;
    EXPECT_EQ(got[i].pos, want[i].pos) << i;
    EXPECT_EQ(got[i].oneHop, want[i].oneHop) << i;
  }
  glr::ckpt::Encoder again;
  restored.agents[1]->service().visit(again);
  EXPECT_EQ(again.data(), e.data());
}

TEST(Neighbor, HelloTrafficCounted) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(5.0);
  EXPECT_GE(h.agents[0]->service().hellosSent(), 5u);
  EXPECT_GE(h.agents[0]->service().hellosReceived(), 5u);
}

TEST(Neighbor, BadParamsThrow) {
  Simulator sim;
  TwoRayGround model;
  RadioParams radio;
  World world{sim, model, radio, glr::mac::MacParams{}};
  world.addNode(std::make_unique<StaticMobility>(Point2{0, 0}), Rng{1});
  struct AtOrigin final : NeighborService::Owner {
    Point2 helloPosition() override { return {0, 0}; }
  } owner;
  NeighborService::Params bad;
  bad.helloInterval = 0.0;
  EXPECT_THROW(NeighborService(sim, world.macOf(0), 0, owner, bad, Rng{2}),
               std::invalid_argument);
}

}  // namespace
