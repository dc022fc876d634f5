// Tests for the Bowyer–Watson Delaunay triangulation: correctness of the
// empty-circumcircle property, degenerate inputs, duplicates, and structural
// invariants (Euler's formula, hull edges present); and for the one-point
// star, checked against the triangulation it must reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "geometry/predicates.hpp"
#include "sim/rng.hpp"

namespace {

using glr::geom::convexHull;
using glr::geom::Delaunay;
using glr::geom::incircle;
using glr::geom::orient2d;
using glr::geom::Point2;

/// buildInto's neighbours of points[0], the reference starInto must match.
std::vector<int> builtStar(const std::vector<Point2>& pts) {
  Delaunay d;
  Delaunay::buildInto(d, pts);
  const auto nbrs = d.neighbors(d.canonicalIndex(0));
  return {nbrs.begin(), nbrs.end()};
}

// Checks the defining property: no input point strictly inside any
// triangle's circumcircle.
void expectEmptyCircumcircles(const Delaunay& dt,
                              const std::vector<Point2>& pts) {
  for (const auto& tri : dt.triangles()) {
    const Point2 a = pts[tri[0]], b = pts[tri[1]], c = pts[tri[2]];
    ASSERT_GT(orient2d(a, b, c), 0.0) << "triangle must be CCW";
    for (std::size_t p = 0; p < pts.size(); ++p) {
      if (static_cast<int>(p) == tri[0] || static_cast<int>(p) == tri[1] ||
          static_cast<int>(p) == tri[2]) {
        continue;
      }
      EXPECT_LE(incircle(a, b, c, pts[p]), 0.0)
          << "point " << p << " violates empty circumcircle";
    }
  }
}

TEST(Delaunay, EmptyAndSingle) {
  const Delaunay d0 = Delaunay::build({});
  EXPECT_TRUE(d0.edges().empty());
  EXPECT_TRUE(d0.triangles().empty());

  const Delaunay d1 = Delaunay::build({{1, 2}});
  EXPECT_TRUE(d1.edges().empty());
}

TEST(Delaunay, TwoPointsMakeOneEdge) {
  const Delaunay d = Delaunay::build({{0, 0}, {3, 4}});
  ASSERT_EQ(d.edges().size(), 1u);
  EXPECT_EQ(d.edges()[0], std::make_pair(0, 1));
  EXPECT_TRUE(d.hasEdge(0, 1));
  EXPECT_TRUE(d.hasEdge(1, 0));
}

TEST(Delaunay, TriangleIsItself) {
  const std::vector<Point2> pts{{0, 0}, {4, 0}, {2, 3}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.triangles().size(), 1u);
  EXPECT_EQ(d.edges().size(), 3u);
  expectEmptyCircumcircles(d, pts);
}

TEST(Delaunay, SquareHasDiagonal) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.triangles().size(), 2u);
  EXPECT_EQ(d.edges().size(), 5u);  // 4 sides + 1 diagonal
  // Exactly one diagonal (cocircular: either is valid).
  const bool d1 = d.hasEdge(0, 2);
  const bool d2 = d.hasEdge(1, 3);
  EXPECT_TRUE(d1 != d2);
  expectEmptyCircumcircles(d, pts);
}

TEST(Delaunay, CollinearPointsFormPath) {
  // No triangles exist; the triangulation's real edges must form the path
  // of consecutive points along the line.
  const std::vector<Point2> pts{{0, 0}, {3, 0}, {1, 0}, {2, 0}, {5, 0}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_TRUE(d.triangles().empty());
  const std::set<std::pair<int, int>> want{{0, 2}, {2, 3}, {1, 3}, {1, 4}};
  const std::set<std::pair<int, int>> got(d.edges().begin(), d.edges().end());
  EXPECT_EQ(got, want);
}

TEST(Delaunay, DuplicatePointsMerged) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {0, 0}, {0.5, 1}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.canonicalIndex(2), 0);
  EXPECT_EQ(d.canonicalIndex(0), 0);
  EXPECT_EQ(d.canonicalIndex(1), 1);
  // Triangulation of the three distinct points.
  EXPECT_EQ(d.triangles().size(), 1u);
}

TEST(Delaunay, GridIsHandledExactly) {
  // Regular grids maximize cocircular degeneracies.
  std::vector<Point2> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);
  // Euler: for n points with h on the hull: triangles = 2n - h - 2,
  // edges = 3n - h - 3. Hull of the 5x5 grid has 16 boundary points, but
  // collinear hull points are interior to hull edges; for triangulation
  // counting, h counts all points on the boundary = 16.
  EXPECT_EQ(d.triangles().size(), 2u * 25 - 16 - 2);
  EXPECT_EQ(d.edges().size(), 3u * 25 - 16 - 3);
}

TEST(Delaunay, HullEdgesArePresent) {
  glr::sim::Rng rng{7};
  std::vector<Point2> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  const Delaunay d = Delaunay::build(pts);
  const auto hull = convexHull(pts);
  ASSERT_GE(hull.size(), 3u);
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const int u = hull[i];
    const int v = hull[(i + 1) % hull.size()];
    EXPECT_TRUE(d.hasEdge(u, v)) << "hull edge " << u << "-" << v;
  }
}

TEST(Delaunay, NeighborsConsistentWithEdges) {
  glr::sim::Rng rng{11};
  std::vector<Point2> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  const Delaunay d = Delaunay::build(pts);
  std::size_t degSum = 0;
  for (int v = 0; v < 40; ++v) {
    for (int u : d.neighborsOf(v)) {
      EXPECT_TRUE(d.hasEdge(v, u));
    }
    degSum += d.neighborsOf(v).size();
  }
  EXPECT_EQ(degSum, 2 * d.edges().size());
}

class DelaunayRandom : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayRandom, EmptyCircumcirclePropertyHolds) {
  glr::sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const int n = 10 + static_cast<int>(rng.below(70));
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  }
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);

  // Euler sanity: with h hull points (general position assumed at random),
  // triangles = 2n - h - 2 and edges = 3n - h - 3.
  const auto hull = convexHull(pts);
  const std::size_t h = hull.size();
  EXPECT_EQ(d.triangles().size(), 2 * static_cast<std::size_t>(n) - h - 2);
  EXPECT_EQ(d.edges().size(), 3 * static_cast<std::size_t>(n) - h - 3);
}

TEST_P(DelaunayRandom, EdgesSurviveInEveryDiskSubsetHoldingBothEnds) {
  // An edge uv of Del(S) has a circle through u and v with no point of S
  // inside, and dropping points cannot fill it: uv is an edge of Del(S') for
  // every subset S' that holds u and v. The subsets here are the points of S
  // within r of a point w of S — the views a per-node witness rule would
  // triangulate, which is why such a rule can never veto a local edge.
  glr::sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const int n = 10 + static_cast<int>(rng.below(70));
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  }
  const Delaunay d = Delaunay::build(pts);
  std::size_t checked = 0;
  for (const double r : {100.0, 200.0}) {
    for (const Point2& w : pts) {
      std::vector<int> localOf(pts.size(), -1);
      std::vector<Point2> sub;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (glr::geom::dist2(pts[i], w) <= r * r) {
          localOf[i] = static_cast<int>(sub.size());
          sub.push_back(pts[i]);
        }
      }
      const Delaunay ds = Delaunay::build(sub);
      for (const auto& [u, v] : d.edges()) {
        if (localOf[u] < 0 || localOf[v] < 0) continue;
        ++checked;
        EXPECT_TRUE(ds.hasEdge(localOf[u], localOf[v]))
            << "edge " << u << "-" << v << " lost in the r=" << r
            << " disk around (" << w.x << ", " << w.y << ")";
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(DelaunayRandom, StarOfEveryPointMatchesTheTriangulation) {
  glr::sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const int n = 10 + static_cast<int>(rng.below(70));
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  }
  std::vector<int> star;
  for (int first = 0; first < n; ++first) {
    std::vector<Point2> view = pts;
    std::swap(view[0], view[static_cast<std::size_t>(first)]);
    ASSERT_TRUE(Delaunay::starInto(star, view))
        << "refused general-position point " << first;
    EXPECT_EQ(star, builtStar(view)) << "point " << first;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayRandom, ::testing::Range(1, 26));

TEST(DelaunayStar, DegenerateViewsMatchWheneverCertified) {
  // Ties (shared rays, cocircular quadruples, duplicates) may refuse, but a
  // star that is returned must be buildInto's, on every choice of centre.
  std::vector<std::vector<Point2>> views;
  std::vector<Point2> grid;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      grid.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  views.push_back(grid);
  views.push_back({{0, 0}, {3, 0}, {1, 0}, {2, 0}, {5, 0}});
  views.push_back({{1, 1}, {4, 0}, {1, 1}, {2, 3}, {-1, 2}, {0, -2}});
  views.push_back({{1, 1}, {4, 0}, {2, 3}, {4, 0}, {-1, 2}, {0, -2}});
  glr::sim::Rng rng{17};
  for (const double cell : {10.0, 25.0, 50.0}) {
    for (int v = 0; v < 30; ++v) {
      std::vector<Point2> view;
      for (int i = 0; i < 25; ++i) {
        view.push_back({cell * std::round(rng.uniform(0, 300) / cell),
                        cell * std::round(rng.uniform(0, 300) / cell)});
      }
      views.push_back(view);
    }
  }
  std::vector<int> star;
  std::size_t certified = 0, refused = 0;
  for (const auto& pts : views) {
    for (std::size_t first = 0; first < pts.size(); ++first) {
      std::vector<Point2> view = pts;
      std::swap(view[0], view[first]);
      if (!Delaunay::starInto(star, view)) {
        ++refused;
        continue;
      }
      ++certified;
      EXPECT_EQ(star, builtStar(view)) << "centre (" << view[0].x << ", "
                                       << view[0].y << ")";
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(Delaunay, ClusteredPointsStressFilter) {
  // Tight clusters + far satellites stress the incircle filter.
  glr::sim::Rng rng{13};
  std::vector<Point2> pts;
  for (int c = 0; c < 5; ++c) {
    const Point2 center{rng.uniform(0, 1e6), rng.uniform(0, 1e6)};
    for (int i = 0; i < 12; ++i) {
      pts.push_back(
          {center.x + rng.uniform(-1e-3, 1e-3),
           center.y + rng.uniform(-1e-3, 1e-3)});
    }
  }
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);
}

TEST(ConvexHull, KnownSquare) {
  const std::vector<Point2> pts{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}};
  const auto hull = convexHull(pts);
  EXPECT_EQ(hull.size(), 4u);
  const std::set<int> hullSet(hull.begin(), hull.end());
  EXPECT_EQ(hullSet, (std::set<int>{0, 1, 2, 3}));
}

TEST(ConvexHull, CollinearExcluded) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {2, 0}, {2, 2}};
  const auto hull = convexHull(pts);
  EXPECT_EQ(hull.size(), 3u);
  const std::set<int> hullSet(hull.begin(), hull.end());
  EXPECT_EQ(hullSet, (std::set<int>{0, 2, 3}));
}

}  // namespace
