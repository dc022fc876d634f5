/// Spatial-grid speedup bench: unit-disk graph construction via the uniform
/// grid (O(n*k)) vs the brute-force all-pairs scan (O(n^2)) at 1k / 10k /
/// 50k nodes. Density is held constant (the paper's 50 nodes per
/// 1500 m x 300 m at 100 m radius, ~area scaled with n) so the average
/// degree — and therefore the edge count per node — stays fixed while n
/// grows, which is exactly the regime where the quadratic scan collapses.
/// Every time printed is the best of kRepeats runs: a 10k grid build takes
/// a few milliseconds, so one scheduling hiccup would move a single timing.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/spatial_grid.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "spanner/udg.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using glr::geom::Point2;
using glr::graph::Graph;

constexpr int kRepeats = 3;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `build` kRepeats times and returns its best wall time; `out` keeps
/// the last result (assigned, and the previous one freed, outside the
/// timing).
template <class T, class F>
double bestSeconds(T& out, F&& build) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    T result = build();
    best = std::min(best, secondsSince(t0));
    out = std::move(result);
  }
  return best;
}

std::vector<Point2> randomPoints(int n, double w, double h,
                                 std::uint64_t seed) {
  glr::sim::Rng rng{seed};
  std::vector<Point2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, w), rng.uniform(0, h)});
  }
  return pts;
}

/// The pre-grid buildUnitDiskGraph, kept verbatim as the baseline.
Graph bruteForceUdg(const std::vector<Point2>& pts, double radius) {
  Graph g{pts.size()};
  const double r2 = radius * radius;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (glr::geom::dist2(pts[i], pts[j]) <= r2) {
        g.addEdge(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return g;
}

}  // namespace

int main() {
  constexpr double kRadius = 100.0;
  // Paper density: 50 nodes / (1500 * 300) m^2; area grows with n.
  constexpr double kAreaPerNode = 1500.0 * 300.0 / 50.0;

  std::printf("UDG construction, constant density, radius %.0f m, best of "
              "%d runs\n",
              kRadius, kRepeats);
  std::printf("%8s %12s %12s %12s %10s %10s\n", "nodes", "edges",
              "brute (s)", "grid (s)", "speedup", "match");

  for (const int n : {1000, 10000, 50000}) {
    const double side = std::sqrt(kAreaPerNode * n);
    const auto pts = randomPoints(n, side, side, 42);

    Graph brute;
    const double bruteSec =
        bestSeconds(brute, [&] { return bruteForceUdg(pts, kRadius); });
    Graph grid;
    const double gridSec = bestSeconds(grid, [&] {
      return glr::spanner::buildUnitDiskGraph(pts, kRadius);
    });

    const bool match = brute.numEdges() == grid.numEdges() &&
                       brute.edges() == grid.edges();
    std::printf("%8d %12zu %12.4f %12.4f %9.1fx %10s\n", n, grid.numEdges(),
                bruteSec, gridSec, bruteSec / gridSec,
                match ? "yes" : "NO (BUG)");
    if (!match) return 1;
  }

  // Radius queries: the channel's receiver-enumeration pattern (one lookup
  // per transmission) vs scanning every node.
  std::printf("\nradius queries (10k lookups on 50k points), best of %d "
              "runs\n",
              kRepeats);
  {
    const int n = 50000;
    const double side = std::sqrt(kAreaPerNode * n);
    const auto pts = randomPoints(n, side, side, 7);
    const glr::geom::SpatialGrid gridIdx{pts, kRadius};

    std::vector<int> out;
    std::size_t total = 0;
    const double gridSec = bestSeconds(total, [&] {
      glr::sim::Rng rng{11};
      std::size_t hits = 0;
      for (int q = 0; q < 10000; ++q) {
        out.clear();
        gridIdx.queryRadius({rng.uniform(0, side), rng.uniform(0, side)},
                            kRadius, out);
        hits += out.size();
      }
      return hits;
    });

    std::size_t totalScan = 0;
    const double r2 = kRadius * kRadius;
    const double scanSec = bestSeconds(totalScan, [&] {
      glr::sim::Rng rng{11};
      std::size_t hits = 0;
      for (int q = 0; q < 10000; ++q) {
        const Point2 c{rng.uniform(0, side), rng.uniform(0, side)};
        for (const Point2& p : pts) {
          if (glr::geom::dist2(p, c) <= r2) ++hits;
        }
      }
      return hits;
    });

    std::printf("  grid: %.4f s   scan: %.4f s   speedup %.1fx   %s\n",
                gridSec, scanSec, scanSec / gridSec,
                total == totalScan ? "(same hit count)" : "(MISMATCH)");
    if (total != totalScan) return 1;
  }
  return 0;
}
