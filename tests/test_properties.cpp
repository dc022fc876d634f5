// Cross-module property and fuzz tests: randomized operation sequences
// checked against brute-force models, and system-level invariants that must
// hold for any seed. These are the "no seed can break this" guarantees the
// protocol's correctness arguments lean on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "closure_sink.hpp"
#include "dtn/buffer.hpp"
#include "core/trees.hpp"
#include "experiment/scenario.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spanner/ldtg.hpp"
#include "spanner/udg.hpp"

namespace {

using glr::dtn::CopyKey;
using glr::dtn::Message;
using glr::dtn::MessageBuffer;
using glr::dtn::TreeFlag;
using glr::geom::Point2;
using glr::sim::Rng;

// ---------------------------------------------------------------------------
// MessageBuffer fuzz: random add/move/ack/timeout/erase sequences vs a
// brute-force model of the two areas; sizes, membership and capacity
// invariants must agree at every step.
// ---------------------------------------------------------------------------

class BufferFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BufferFuzz, MatchesBruteForceModel) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919};
  const std::size_t capacity = 1 + rng.below(12);
  MessageBuffer buf{capacity};

  // Model: ordered lists of keys (FIFO).
  std::vector<CopyKey> store, cache;
  const auto makeKey = [&rng]() -> CopyKey {
    return {{static_cast<int>(rng.below(3)), static_cast<int>(rng.below(8))},
            static_cast<TreeFlag>(rng.below(4))};
  };
  const auto modelContains = [&](const CopyKey& k) {
    return std::find(store.begin(), store.end(), k) != store.end() ||
           std::find(cache.begin(), cache.end(), k) != cache.end();
  };
  const auto modelEvict = [&]() {
    if (!cache.empty()) {
      cache.erase(cache.begin());
    } else if (!store.empty()) {
      store.erase(store.begin());
    }
  };

  for (int step = 0; step < 400; ++step) {
    const auto op = rng.below(5);
    const CopyKey k = makeKey();
    switch (op) {
      case 0: {  // addToStore
        Message m;
        m.id = k.id;
        m.flag = k.flag;
        const bool expect = !modelContains(k) && capacity > 0;
        if (expect) {
          while (store.size() + cache.size() >= capacity) modelEvict();
          store.push_back(k);
        }
        EXPECT_EQ(buf.addToStore(m), expect) << "step " << step;
        break;
      }
      case 1: {  // moveToCache
        const auto it = std::find(store.begin(), store.end(), k);
        const bool expect = it != store.end();
        if (expect) {
          store.erase(it);
          cache.push_back(k);
        }
        EXPECT_EQ(buf.moveToCache(k, 1, static_cast<double>(step)), expect);
        break;
      }
      case 2: {  // removeFromCache (custody ack)
        const auto it = std::find(cache.begin(), cache.end(), k);
        const bool expect = it != cache.end();
        if (expect) cache.erase(it);
        EXPECT_EQ(buf.removeFromCache(k).has_value(), expect);
        break;
      }
      case 3: {  // returnToStore (timeout)
        const auto it = std::find(cache.begin(), cache.end(), k);
        const bool expect = it != cache.end();
        if (expect) {
          cache.erase(it);
          store.push_back(k);
        }
        EXPECT_EQ(buf.returnToStore(k), expect);
        break;
      }
      case 4: {  // erase
        const bool expect = modelContains(k);
        auto it = std::find(store.begin(), store.end(), k);
        if (it != store.end()) {
          store.erase(it);
        } else {
          it = std::find(cache.begin(), cache.end(), k);
          if (it != cache.end()) cache.erase(it);
        }
        EXPECT_EQ(buf.erase(k), expect);
        break;
      }
      default:
        break;
    }
    // Invariants after every operation.
    ASSERT_EQ(buf.storeSize(), store.size()) << "step " << step;
    ASSERT_EQ(buf.cacheSize(), cache.size()) << "step " << step;
    ASSERT_LE(buf.size(), capacity);
    for (const CopyKey& key : store) ASSERT_TRUE(buf.inStore(key));
    for (const CopyKey& key : cache) ASSERT_TRUE(buf.inCache(key));
    // FIFO order of the store is preserved.
    ASSERT_EQ(buf.storeKeys(), store);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFuzz, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Predicate fuzz: orient2d must agree with exact integer arithmetic on
// random integer-coordinate triples, including near-degenerate ones.
// ---------------------------------------------------------------------------

class PredicateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PredicateFuzz, Orient2dMatchesIntegerArithmetic) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729};
  for (int iter = 0; iter < 4000; ++iter) {
    // Mix wide-range and clustered coordinates to hit the filter both ways.
    const long long lim = iter % 2 == 0 ? 1000000 : 8;
    const auto coord = [&]() {
      return static_cast<long long>(rng.range(-lim, lim));
    };
    const long long ax = coord(), ay = coord(), bx = coord(), by = coord(),
                    cx = coord(), cy = coord();
    const Point2 a{static_cast<double>(ax), static_cast<double>(ay)};
    const Point2 b{static_cast<double>(bx), static_cast<double>(by)};
    const Point2 c{static_cast<double>(cx), static_cast<double>(cy)};
    // Exact via __int128: coordinates <= 1e6 keep products in range.
    const __int128 det = static_cast<__int128>(ax - cx) * (by - cy) -
                         static_cast<__int128>(ay - cy) * (bx - cx);
    const double got = glr::geom::orient2d(a, b, c);
    ASSERT_EQ(det > 0, got > 0.0) << iter;
    ASSERT_EQ(det < 0, got < 0.0) << iter;
    ASSERT_EQ(det == 0, got == 0.0) << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateFuzz, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Delaunay + LDTG property sweep across densities: the structural
// guarantees GLR relies on, for any seed.
// ---------------------------------------------------------------------------

struct SpannerCase {
  int seed;
  int n;
  double radius;
};

class SpannerSweep : public ::testing::TestWithParam<SpannerCase> {};

TEST_P(SpannerSweep, StructuralInvariants) {
  const auto [seed, n, radius] = GetParam();
  Rng rng{static_cast<std::uint64_t>(seed) * 31337};
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 600)});
  }
  const auto udg = glr::spanner::buildUnitDiskGraph(pts, radius);
  const auto ldtg = glr::spanner::buildLdtg(pts, radius, 2);

  // 1. Subgraph of the UDG.
  for (const auto& [u, v] : ldtg.edges()) {
    ASSERT_TRUE(udg.hasEdge(u, v));
  }
  // 2. Planar straight-line embedding.
  ASSERT_TRUE(glr::graph::isPlanarEmbedding(ldtg, pts));
  // 3. Component-preserving.
  const auto cu = glr::graph::connectedComponents(udg);
  const auto cl = glr::graph::connectedComponents(ldtg);
  for (std::size_t a = 0; a < pts.size(); ++a) {
    for (std::size_t b = a + 1; b < pts.size(); ++b) {
      ASSERT_EQ(cu[a] == cu[b], cl[a] == cl[b]);
    }
  }
  // 4. Delaunay of the local view never contains a UDG-length edge crossing
  //    (implied by planarity; spot-check edge lengths).
  for (const auto& [u, v] : ldtg.edges()) {
    ASSERT_LE(glr::geom::dist(pts[u], pts[v]), radius + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpannerSweep,
    ::testing::Values(SpannerCase{1, 30, 150.0}, SpannerCase{2, 30, 300.0},
                      SpannerCase{3, 60, 120.0}, SpannerCase{4, 60, 250.0},
                      SpannerCase{5, 90, 100.0}, SpannerCase{6, 90, 200.0},
                      SpannerCase{7, 40, 80.0}, SpannerCase{8, 40, 500.0}));

// ---------------------------------------------------------------------------
// Scenario-level invariants for any protocol and seed: conservation-style
// checks the metrics must satisfy.
// ---------------------------------------------------------------------------

struct ScenarioCase {
  glr::experiment::Protocol protocol;
  double radius;
  int seed;
};

class ScenarioInvariants : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioInvariants, HoldForAnySeed) {
  const auto [protocol, radius, seed] = GetParam();
  glr::experiment::ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.radius = radius;
  cfg.numMessages = 30;
  cfg.simTime = 200.0;
  cfg.seed = static_cast<std::uint64_t>(seed);
  const auto r = glr::experiment::runScenario(cfg);

  EXPECT_EQ(r.created, 30u);
  EXPECT_LE(r.delivered, r.created);
  EXPECT_GE(r.deliveryRatio, 0.0);
  EXPECT_LE(r.deliveryRatio, 1.0);
  if (r.delivered > 0) {
    EXPECT_GT(r.avgLatency, 0.0);
    EXPECT_LT(r.avgLatency, cfg.simTime);
    EXPECT_GE(r.avgHops, 1.0);
  }
  // Storage peaks: max >= avg >= 0; bounded by messages (x copies).
  EXPECT_GE(r.maxPeakStorage, r.avgPeakStorage);
  EXPECT_LE(r.maxPeakStorage,
            static_cast<double>(cfg.numMessages) * glr::core::kMaxCopies);
  EXPECT_GT(r.eventsExecuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioInvariants,
    ::testing::Values(
        ScenarioCase{glr::experiment::Protocol::kGlr, 60.0, 11},
        ScenarioCase{glr::experiment::Protocol::kGlr, 150.0, 12},
        ScenarioCase{glr::experiment::Protocol::kGlr, 250.0, 13},
        ScenarioCase{glr::experiment::Protocol::kEpidemic, 60.0, 14},
        ScenarioCase{glr::experiment::Protocol::kEpidemic, 200.0, 15},
        ScenarioCase{glr::experiment::Protocol::kDirectDelivery, 150.0, 16},
        ScenarioCase{glr::experiment::Protocol::kSprayAndWait, 100.0, 17}));

// ---------------------------------------------------------------------------
// Simulator stress: deterministic replay under heavy random scheduling and
// cancellation from within callbacks.
// ---------------------------------------------------------------------------

TEST(SimulatorStress, RandomScheduleCancelReplay) {
  const auto run = [](std::uint64_t seed) {
    glr::sim::Simulator sim;
    glr::test::ClosureSink events{sim};
    Rng rng{seed};
    std::vector<glr::sim::EventHandle> handles;
    std::uint64_t checksum = 0;
    std::function<void(int)> spawn = [&](int depth) {
      checksum = checksum * 1099511628211ULL + sim.eventsExecuted();
      if (depth < 3) {
        for (int i = 0; i < 3; ++i) {
          handles.push_back(events.schedule(
              rng.uniform(0.0, 5.0), [&spawn, depth] { spawn(depth + 1); }));
        }
      }
      if (!handles.empty() && rng.bernoulli(0.3)) {
        handles[rng.below(handles.size())].cancel();
      }
    };
    for (int i = 0; i < 50; ++i) {
      handles.push_back(
          events.schedule(rng.uniform(0.0, 10.0), [&spawn] { spawn(0); }));
    }
    sim.run(100.0);
    return checksum ^ sim.eventsExecuted();
  };
  EXPECT_EQ(run(99), run(99));  // deterministic replay
  EXPECT_NE(run(99), run(100));
}

}  // namespace
