/// Substrate micro-benchmarks (google-benchmark): exact predicates,
/// Delaunay construction, LDTG construction, event-queue throughput,
/// random-waypoint evaluation and MAC saturation. These characterize the
/// costs behind every scenario second.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "mac/mac.hpp"
#include "mobility/mobility.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spanner/ldtg.hpp"

namespace {

using glr::geom::Point2;

std::vector<Point2> randomPoints(int n, std::uint64_t seed = 7) {
  glr::sim::Rng rng{seed};
  std::vector<Point2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  return pts;
}

void BM_Orient2dFiltered(benchmark::State& state) {
  const auto pts = randomPoints(1000);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i % 1000];
    const auto& b = pts[(i + 331) % 1000];
    const auto& c = pts[(i + 677) % 1000];
    benchmark::DoNotOptimize(glr::geom::orient2d(a, b, c));
    ++i;
  }
}
BENCHMARK(BM_Orient2dFiltered);

void BM_Orient2dExactPath(benchmark::State& state) {
  // Collinear points force the exact-arithmetic fallback every call.
  const Point2 a{0.5, 0.5}, b{12.0, 12.0}, c{24.0, 24.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(glr::geom::orient2d(a, b, c));
  }
}
BENCHMARK(BM_Orient2dExactPath);

void BM_Incircle(benchmark::State& state) {
  const auto pts = randomPoints(1000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(glr::geom::incircle(
        pts[i % 997], pts[(i + 31) % 997], pts[(i + 61) % 997],
        pts[(i + 97) % 997]));
    ++i;
  }
}
BENCHMARK(BM_Incircle);

void BM_DelaunayBuild(benchmark::State& state) {
  const auto pts = randomPoints(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(glr::geom::Delaunay::build(pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DelaunayBuild)->Arg(10)->Arg(30)->Arg(100)->Arg(300)->Complexity();

void BM_LdtgGlobalBuild(benchmark::State& state) {
  const auto pts = randomPoints(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(glr::spanner::buildLdtg(pts, 250.0, 2));
  }
}
BENCHMARK(BM_LdtgGlobalBuild)->Arg(50)->Arg(100);

void BM_LocalSpannerNeighbors(benchmark::State& state) {
  // The per-check cost each GLR node pays: local view of ~25 nodes.
  const auto pts = randomPoints(25, 11);
  std::vector<glr::spanner::KnownNode> known;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    known.push_back({static_cast<int>(i), pts[i],
                     glr::geom::dist(pts[0], pts[i]) <= 300.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        glr::spanner::localSpannerNeighbors(0, pts[0], known, 300.0));
  }
}
BENCHMARK(BM_LocalSpannerNeighbors);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    glr::sim::Simulator sim;
    glr::sim::Rng rng{3};
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(rng.uniform(0.0, 100.0), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_RandomWaypointQuery(benchmark::State& state) {
  glr::mobility::RandomWaypoint m{{1500, 300}, 0.1, 20.0, 0.0, {10, 10},
                                  glr::sim::Rng{5}};
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    benchmark::DoNotOptimize(m.positionAt(t));
  }
}
BENCHMARK(BM_RandomWaypointQuery);

void BM_MacSaturatedPair(benchmark::State& state) {
  // End-to-end MAC throughput: one saturated unicast pair, 1000-byte
  // payloads at 1 Mbps. items/s approximates deliverable packets/s.
  for (auto _ : state) {
    glr::sim::Simulator sim;
    glr::phy::TwoRayGround model;
    glr::phy::RadioParams radio;
    glr::net::World world{sim, model, radio, glr::mac::MacParams{}};
    world.addNode(
        std::make_unique<glr::mobility::StaticMobility>(Point2{0, 0}),
        glr::sim::Rng{1});
    world.addNode(
        std::make_unique<glr::mobility::StaticMobility>(Point2{100, 0}),
        glr::sim::Rng{2});
    int delivered = 0;
    world.macOf(1).setReceiveCallback(
        [&delivered](const glr::net::Packet&, int) { ++delivered; });
    for (int i = 0; i < 100; ++i) {
      glr::net::Packet p;
      p.bytes = 1000;
      p.kind = "x";
      world.macOf(0).send(std::move(p), 1);
    }
    sim.run(10.0);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MacSaturatedPair);

}  // namespace

BENCHMARK_MAIN();
