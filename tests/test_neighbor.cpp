// Tests for the IMEP-like neighbor/location sensing service on a small
// simulated network: discovery, expiry, 2-hop knowledge, contact events,
// the table's id order, the shared hello neighbor lists and the checkpoint
// round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "checkpoint/codec.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/payload.hpp"
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
  saved.agents[1]->service().visit(e, line.size());

  // A different world at the same clock, whose node 1 knows other nodes
  // until the snapshot overwrites its table.
  Harness restored{{{0, 0}, {150, 0}, {300, 0}, {900, 900}}};
  restored.sim.run(6.0);
  glr::ckpt::Decoder d{e.data().data(), e.data().size(), "neighbor test"};
  restored.agents[1]->service().visit(d, line.size());
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
  restored.agents[1]->service().visit(again, line.size());
  EXPECT_EQ(again.data(), e.data());
}

/// A hello from `id` at `pos` that reports no neighbors.
Packet helloFrom(int id, Point2 pos) {
  glr::net::HelloPayload hello;
  hello.id = id;
  hello.pos = pos;
  Packet p;
  p.kind = glr::net::kHelloKind;
  p.payload = glr::net::Payload::of(hello);
  return p;
}

/// The number of records in `service`'s table, as its snapshot writes it
/// (the count after the 32-byte RNG state).
std::uint64_t tableSize(NeighborService& service) {
  glr::ckpt::Encoder e;
  service.visit(e, 6);
  glr::ckpt::Decoder d{e.data().data() + 32, 8, "table size"};
  return d.u64();
}

TEST(Neighbor, TableOrderIsAscendingIdsAfterEvictionAndReinsert) {
  // Node 0 hears a listener (node 1) through its beacons and nodes 5, 4, 3
  // and 2, far out of radio range, through hellos handed to it directly,
  // in descending id order. Node 2 then falls silent until it is evicted,
  // and is heard again.
  NeighborService::Params params;
  params.evictAfterFactor = 1.0;  // evict 2 s after a record goes stale
  Harness h{{{0, 0},
             {100, 0},
             {5000, 0},
             {10000, 0},
             {15000, 0},
             {20000, 0}},
            250.0,
            params};
  NeighborService& service = h.agents[0]->service();
  const auto hear = [&](std::initializer_list<int> ids) {
    for (const int id : ids) {
      ASSERT_TRUE(service.handlePacket(helloFrom(id, {1.0 * id, 0}), id));
    }
  };
  hear({5, 4, 3, 2});
  double t = 0.0;
  for (; t < 6.0; t += 0.25) {
    h.sim.run(t);
    hear({5, 4, 3});
  }
  EXPECT_FALSE(service.isNeighbor(2));
  EXPECT_EQ(tableSize(service), 4u);  // 1, 3, 4 and 5: 2 was evicted
  hear({2});
  EXPECT_EQ(tableSize(service), 5u);
  // Keep all four fresh until node 0 has beaconed at least once more.
  for (; t < 7.5; t += 0.25) {
    h.sim.run(t);
    hear({5, 4, 3, 2});
  }
  const std::vector<int> ascending{1, 2, 3, 4, 5};
  std::vector<int> listed;
  for (const glr::net::HelloEntry& e : h.agents[1]->service().reportedBy(0)) {
    listed.push_back(e.id);
  }
  EXPECT_EQ(listed, ascending);
  std::vector<glr::spanner::KnownNode> knowledge;
  service.knowledge(knowledge);
  std::vector<int> oneHop;
  for (const auto& kn : knowledge) {
    if (kn.oneHop) oneHop.push_back(kn.id);
  }
  EXPECT_EQ(oneHop, ascending);
  EXPECT_EQ(service.currentNeighbors(), ascending);
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
