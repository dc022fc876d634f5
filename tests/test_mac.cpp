// Tests for the channel + simplified 802.11 DCF MAC using small static
// topologies: delivery in range, no delivery out of range, ACK/retry
// behaviour, hidden-terminal collisions, half duplex, queue drop-tail and
// broadcast.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "closure_sink.hpp"
#include "mac/channel.hpp"
#include "mac/frame.hpp"
#include "mac/mac.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::geom::Point2;
using glr::mac::Channel;
using glr::mac::Mac;
using glr::mac::MacParams;
using glr::net::kBroadcast;
using glr::net::Packet;
using glr::phy::RadioParams;
using glr::phy::solveThresholds;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::Simulator;

/// One node's upper layer: records each packet it receives (kind, sender)
/// and the outcomes of its unicasts.
struct Recorder final : glr::mac::MacClient {
  std::vector<std::pair<std::string, int>> received;
  std::vector<bool> txOutcomes;

  void onPacket(const Packet& p, int from) override {
    received.emplace_back(p.kind, from);
  }
  void onTxStatus(const Packet& /*p*/, int /*dst*/, bool success) override {
    txOutcomes.push_back(success);
  }
};

/// Static test harness: a channel with fixed node positions. Every MAC gets
/// its own copy of `mp`, as a lone MAC does.
struct StaticNet {
  Simulator sim;
  TwoRayGround model;
  std::vector<Point2> positions;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Mac>> macs;
  std::vector<Recorder> nodes;  // per node; sized once, never grown

  explicit StaticNet(std::vector<Point2> pos, double range = 250.0,
                     MacParams mp = {}, double csFactor = 2.2)
      : positions(std::move(pos)) {
    RadioParams radio;
    radio.nominalRange = range;
    radio.carrierSenseFactor = csFactor;
    channel = std::make_unique<Channel>(
        sim, model, solveThresholds(model, radio), radio.txPowerW,
        [this](int id) { return positions[static_cast<std::size_t>(id)]; });
    nodes.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      macs.push_back(std::make_unique<Mac>(sim, *channel,
                                           static_cast<int>(i), mp,
                                           Rng{100 + i}));
      macs.back()->setClient(&nodes[i]);
    }
  }

  Packet makePacket(std::string kind, std::size_t bytes = 100) {
    Packet p;
    p.kind = std::move(kind);
    p.bytes = bytes;
    return p;
  }
};

TEST(Mac, UnicastDeliveredInRange) {
  StaticNet net{{{0, 0}, {100, 0}}};
  EXPECT_TRUE(net.macs[0]->send(net.makePacket("x"), 1));
  net.sim.run(1.0);
  ASSERT_EQ(net.nodes[1].received.size(), 1u);
  EXPECT_EQ(net.nodes[1].received[0].first, "x");
  EXPECT_EQ(net.nodes[1].received[0].second, 0);
  // MAC-level ACK seen.
  EXPECT_EQ(net.nodes[0].txOutcomes, std::vector<bool>{true});
  EXPECT_EQ(net.macs[1]->stats().ackTx, 1u);
  EXPECT_EQ(net.macs[0]->stats().rxAck, 1u);
}

TEST(Mac, UnicastOutOfRangeFailsAfterRetries) {
  StaticNet net{{{0, 0}, {400, 0}}};  // beyond 250 m
  net.macs[0]->send(net.makePacket("x"), 1);
  net.sim.run(5.0);
  EXPECT_TRUE(net.nodes[1].received.empty());
  EXPECT_EQ(net.nodes[0].txOutcomes, std::vector<bool>{false});
  // retryLimit retries happened.
  EXPECT_EQ(net.macs[0]->stats().retryDrops, 1u);
  EXPECT_EQ(net.macs[0]->stats().dataTx, 8u);  // 1 + 7 retries
}

TEST(Mac, BroadcastReachesAllInRange) {
  StaticNet net{{{0, 0}, {100, 0}, {200, 0}, {600, 0}}};
  net.macs[0]->send(net.makePacket("b"), kBroadcast);
  net.sim.run(1.0);
  EXPECT_EQ(net.nodes[1].received.size(), 1u);
  EXPECT_EQ(net.nodes[2].received.size(), 1u);
  EXPECT_TRUE(net.nodes[3].received.empty());  // out of range
}

TEST(Mac, QueueDropTail) {
  MacParams mp;
  mp.queueLimit = 3;
  StaticNet net{{{0, 0}, {100, 0}}, 250.0, mp};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (net.macs[0]->send(net.makePacket("x", 1000), 1)) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(net.macs[0]->stats().queueDrops, 7u);
  net.sim.run(5.0);
  EXPECT_EQ(net.nodes[1].received.size(), 3u);
}

TEST(Mac, BackToBackPacketsAllArrive) {
  // Names are built with snprintf: GCC 12 raises a spurious -Wrestrict on
  // the inlined `"p" + std::to_string(i)` temporary.
  const auto name = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%d", i);
    return std::string{buf};
  };
  StaticNet net{{{0, 0}, {120, 0}}};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.macs[0]->send(net.makePacket(name(i)), 1));
  }
  net.sim.run(10.0);
  ASSERT_EQ(net.nodes[1].received.size(), 20u);
  // In order.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(net.nodes[1].received[static_cast<std::size_t>(i)].first,
              name(i));
  }
}

TEST(Mac, BidirectionalTrafficCompletes) {
  StaticNet net{{{0, 0}, {100, 0}}};
  for (int i = 0; i < 10; ++i) {
    net.macs[0]->send(net.makePacket("a"), 1);
    net.macs[1]->send(net.makePacket("b"), 0);
  }
  net.sim.run(10.0);
  EXPECT_EQ(net.nodes[0].received.size(), 10u);
  EXPECT_EQ(net.nodes[1].received.size(), 10u);
}

TEST(Mac, HiddenTerminalCausesLossOrRetry) {
  // With carrier-sense factor 1.0, nodes 0 and 2 (1200 m apart, 650 m CS
  // range) cannot hear each other but both reach node 1: classic hidden
  // terminal. With simultaneous saturated traffic, collisions at 1 occur.
  StaticNet net{{{0, 0}, {600, 0}, {1200, 0}}, 650.0, MacParams{}, 1.0};
  for (int i = 0; i < 30; ++i) {
    net.macs[0]->send(net.makePacket("a", 1000), 1);
    net.macs[2]->send(net.makePacket("c", 1000), 1);
  }
  net.sim.run(30.0);
  EXPECT_GT(net.channel->stats().collisions, 0u);
  // Retries recover most frames.
  EXPECT_GT(net.nodes[1].received.size(), 30u);
}

TEST(Mac, CarrierSenseSerializesNeighbors) {
  // Two senders in CS range of each other transmitting to a common receiver
  // rarely collide: deliveries should be (near) complete.
  StaticNet net{{{0, 0}, {100, 0}, {50, 80}}};
  for (int i = 0; i < 25; ++i) {
    net.macs[0]->send(net.makePacket("a", 1000), 1);
    net.macs[2]->send(net.makePacket("c", 1000), 1);
  }
  net.sim.run(30.0);
  EXPECT_EQ(net.nodes[1].received.size(), 50u);
}

TEST(Mac, DuplicateSuppressionOnAckLoss) {
  // Receiver hears data but its ACK can collide; MAC must not deliver the
  // same frame twice upward. We approximate by checking the duplicate
  // counter stays consistent with deliveries across a lossy hidden-terminal
  // run: upper layer must never see the same (src,seq) twice in a row.
  StaticNet net{{{0, 0}, {600, 0}, {1200, 0}}, 650.0, MacParams{}, 1.0};
  for (int i = 0; i < 40; ++i) {
    net.macs[0]->send(net.makePacket("a", 500), 1);
    net.macs[2]->send(net.makePacket("c", 500), 1);
  }
  net.sim.run(60.0);
  // Each upper-layer delivery of "a" (resp. "c") is distinct: at most 40.
  std::size_t aCount = 0, cCount = 0;
  for (const auto& [kind, from] : net.nodes[1].received) {
    if (kind == "a") ++aCount;
    if (kind == "c") ++cCount;
  }
  EXPECT_LE(aCount, 40u);
  EXPECT_LE(cCount, 40u);
}

TEST(Mac, DuplicateFilterSuppressesUnicastRetriesOnly) {
  // Sender 0 interleaves unicasts to receiver 1 with broadcasts, while a
  // jammer, node 2, floods broadcasts from the sender's far side. The
  // sender and the jammer hear each other; the receiver and the jammer do
  // not. So every frame the sender puts on air reaches the receiver
  // intact, but the jammer, deaf to the receiver's ACK, often starts
  // during it and the ACK collides at the sender, which then retries a
  // unicast the receiver already holds.
  StaticNet net{{{0, 0}, {600, 0}, {-600, 0}}, 650.0, MacParams{}, 1.0};
  constexpr int kEach = 40;
  const auto label = [](char kind, int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%c%d", kind, i);
    return std::string{buf};
  };
  for (int i = 0; i < kEach; ++i) {
    net.macs[0]->send(net.makePacket(label('u', i), 500), 1);
    net.macs[0]->send(net.makePacket(label('b', i), 500), kBroadcast);
  }
  for (int i = 0; i < 150; ++i) {
    net.macs[2]->send(net.makePacket("j", 500), kBroadcast);
  }
  net.sim.run(60.0);

  std::map<std::string, int> deliveries;
  for (const auto& [kind, from] : net.nodes[1].received) {
    EXPECT_EQ(from, 0) << kind;
    ++deliveries[kind];
  }
  for (int i = 0; i < kEach; ++i) {
    const std::string u = label('u', i);
    const std::string b = label('b', i);
    EXPECT_LE(deliveries[u], 1) << u;  // a retry never reaches the client
    EXPECT_EQ(deliveries[b], 1) << b;  // each broadcast aired once, heard
  }
  const auto& rx = net.macs[1]->stats();
  EXPECT_GT(rx.duplicatesSuppressed, 0u);
  EXPECT_EQ(rx.rxData, net.nodes[1].received.size());
  EXPECT_GT(net.macs[0]->stats().retries, 0u);
}

TEST(Mac, OwnTransmissionBlocksReception) {
  // Half duplex: a radio that was on air at any time during a frame cannot
  // decode it. Nodes 0 and 2 put frames on air straight through the
  // channel at chosen times (no contention, so nothing defers); node 1
  // answers node 0's unicasts with ACKs through its own MAC. cwMin 0 means
  // no backoff draw, so node 1's broadcast goes on air DIFS after it is
  // queued.
  MacParams mp;
  mp.cwMin = 0;
  StaticNet net{{{0, 0}, {100, 0}, {200, 0}}, 250.0, mp};
  glr::test::ClosureSink clock{net.sim};
  const auto airtime = [&](std::size_t bytes) {
    return mp.phyOverhead + static_cast<double>(bytes) * 8.0 / mp.bitRateBps;
  };
  const auto putOnAir = [&](int src, int dst, std::uint64_t seq,
                            std::string kind) {
    glr::mac::Frame frame;
    frame.src = src;
    frame.dst = dst;
    frame.seq = seq;
    frame.packet = net.makePacket(std::move(kind));
    frame.bytes = frame.packet.bytes + mp.macHeaderBytes;
    const double duration = airtime(frame.bytes);
    net.channel->startTransmission(src, std::move(frame), duration);
    return duration;
  };
  const auto count = [&](const std::string& kind) {
    int n = 0;
    for (const auto& [k, from] : net.nodes[1].received) n += k == kind;
    return n;
  };
  const double ackDur = airtime(mp.ackBytes);

  // (a) Node 0's unicast lands at 1, whose ACK goes on air SIFS later;
  // node 2 starts a broadcast halfway through that ACK.
  clock.scheduleAt(0.010, [&] {
    const double dataEnd = net.sim.now() + putOnAir(0, 1, 1, "d1");
    clock.scheduleAt(dataEnd + mp.sifs + ackDur / 2,
                     [&] { putOnAir(2, kBroadcast, 0, "a"); });
  });
  net.sim.run(0.050);
  EXPECT_EQ(count("d1"), 1);
  EXPECT_EQ(net.macs[1]->stats().ackTx, 1u);
  EXPECT_EQ(count("a"), 0);
  EXPECT_EQ(net.channel->stats().rxWhileTx, 1u);

  // (b) The same exchange again, but node 2 starts exactly when the ACK
  // ends: the intervals only touch, so node 1 decodes it.
  clock.scheduleAt(0.100, [&] {
    const double dataEnd = net.sim.now() + putOnAir(0, 1, 2, "d2");
    clock.scheduleAt(dataEnd + mp.sifs + ackDur,
                     [&] { putOnAir(2, kBroadcast, 0, "b"); });
  });
  net.sim.run(0.150);
  EXPECT_EQ(count("d2"), 1);
  EXPECT_EQ(net.macs[1]->stats().ackTx, 2u);
  EXPECT_EQ(count("b"), 1);
  EXPECT_EQ(net.channel->stats().rxWhileTx, 1u);

  // (c) Node 1 broadcasts through its MAC; node 2 starts a frame while
  // that broadcast is on air.
  clock.scheduleAt(0.200, [&] {
    ASSERT_TRUE(net.macs[1]->send(net.makePacket("own"), kBroadcast));
    clock.scheduleAt(net.sim.now() + mp.difs + airtime(128) / 2,
                     [&] { putOnAir(2, kBroadcast, 0, "c"); });
  });
  net.sim.run(0.250);
  EXPECT_EQ(net.macs[1]->stats().dataTx, 1u);
  EXPECT_EQ(count("c"), 0);
  EXPECT_EQ(net.channel->stats().rxWhileTx, 2u);
}

TEST(Mac, AirTimeAccounted) {
  StaticNet net{{{0, 0}, {100, 0}}};
  net.macs[0]->send(net.makePacket("x", 1000), 1);
  net.sim.run(1.0);
  // 1028 bytes at 1 Mbps + 192 us preamble = ~8.4 ms, plus a 304 us ACK.
  EXPECT_NEAR(net.channel->stats().airTimeSeconds, 0.0087, 0.001);
}

TEST(Mac, StatsCountersConsistent) {
  StaticNet net{{{0, 0}, {100, 0}}};
  for (int i = 0; i < 5; ++i) net.macs[0]->send(net.makePacket("x"), 1);
  net.sim.run(5.0);
  const auto& s = net.macs[0]->stats();
  EXPECT_EQ(s.enqueued, 5u);
  EXPECT_EQ(s.dataTx, 5u);  // no retries needed in clean channel
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(net.macs[1]->stats().rxData, 5u);
}

}  // namespace
