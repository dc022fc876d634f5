#include "geometry/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "geometry/predicates.hpp"

namespace glr::geom {

namespace {

constexpr int kNone = -1;

/// Mutable triangle soup used during construction.
struct Tri {
  std::array<int, 3> v{kNone, kNone, kNone};    // CCW vertices
  std::array<int, 3> nbr{kNone, kNone, kNone};  // nbr[i] is across edge opposite v[i]
  bool alive = false;
};

/// Construction workspace. One instance lives per thread and is reused by
/// every build and star (the GLR route check computes one star per check,
/// hundreds of thousands per run): all vectors keep their capacity across
/// builds, and the cavity membership flags are generation-stamped so they
/// need no clearing. The flat boundary/fan scratch replaces the per-insert
/// std::map edge-stitching of the original Bowyer–Watson loop — boundary
/// cycles are a handful of edges, where a linear scan beats a red-black
/// tree and allocates nothing.
struct Builder {
  std::vector<Point2> pts;  // input points + 3 super vertices
  std::vector<Tri> tris;
  int lastAlive = kNone;  // walk start hint

  // insert() scratch.
  std::vector<int> cavity;
  std::vector<int> stack;
  std::vector<std::uint32_t> cavityStamp;  // == stamp -> tri is in cavity
  std::uint32_t stamp = 0;
  struct BoundaryEdge {
    int a, b;      // directed so the cavity interior is to the left
    int outside;   // triangle index across the edge, or kNone
    int tri;       // fan triangle created over this edge
  };
  std::vector<BoundaryEdge> boundary;

  // build() scratch.
  std::vector<int> sortIdx;
  std::vector<std::pair<int, int>> edgeScratch;

  // starInto() scratch: the canonical map and the angular ring of points
  // around the centre, linked so a deletion is O(1).
  struct RingNode {
    int id;  // point index; n + s for super vertex s
    int prev, next;
    bool convex;  // confirmed strictly convex against its current neighbours
  };
  std::vector<int> starDuplicateOf;
  std::vector<RingNode> ring;

  void reset(const std::vector<Point2>& points) {
    pts.assign(points.begin(), points.end());
    tris.clear();
    lastAlive = kNone;
  }

  [[nodiscard]] bool inCavity(int t) const {
    return cavityStamp[static_cast<std::size_t>(t)] == stamp;
  }

  [[nodiscard]] bool inTriangle(int t, Point2 p, int& exitEdge) const {
    // Returns true if p is inside or on triangle t; otherwise sets exitEdge
    // to an edge index whose opposite neighbor is closer to p.
    const Tri& tr = tris[t];
    for (int e = 0; e < 3; ++e) {
      const Point2 a = pts[tr.v[(e + 1) % 3]];
      const Point2 b = pts[tr.v[(e + 2) % 3]];
      if (orient2d(a, b, p) < 0.0) {
        exitEdge = e;
        return false;
      }
    }
    return true;
  }

  /// Visibility walk from the hint triangle; guaranteed to terminate on a
  /// Delaunay triangulation.
  [[nodiscard]] int locate(Point2 p) const {
    int t = lastAlive;
    if (t == kNone || !tris[t].alive) {
      for (std::size_t i = 0; i < tris.size(); ++i) {
        if (tris[i].alive) {
          t = static_cast<int>(i);
          break;
        }
      }
    }
    if (t == kNone) throw std::logic_error{"Delaunay::locate: no triangles"};
    for (std::size_t guard = 0; guard <= 4 * tris.size() + 16; ++guard) {
      int exitEdge = kNone;
      if (inTriangle(t, p, exitEdge)) return t;
      const int next = tris[t].nbr[exitEdge];
      if (next == kNone) {
        throw std::logic_error{
            "Delaunay::locate: walked outside the super-triangle"};
      }
      t = next;
    }
    throw std::logic_error{"Delaunay::locate: walk did not terminate"};
  }

  [[nodiscard]] bool inCircumcircle(int t, Point2 p) const {
    const Tri& tr = tris[t];
    return incircle(pts[tr.v[0]], pts[tr.v[1]], pts[tr.v[2]], p) > 0.0;
  }

  int newTriangle(int a, int b, int c) {
    Tri tr;
    tr.v = {a, b, c};
    tr.alive = true;
    tris.push_back(tr);
    return static_cast<int>(tris.size() - 1);
  }

  void insert(int pi) {
    const Point2 p = pts[pi];
    const int seed = locate(p);

    // Grow the cavity: all triangles whose circumcircle contains p. The
    // workspace lives for the whole thread, so the generation stamp can
    // genuinely reach 2^32 over a long sweep — wrap by rewinding to a
    // clean slate instead of colliding with stale entries.
    if (stamp == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(cavityStamp.begin(), cavityStamp.end(), 0);
      stamp = 0;
    }
    ++stamp;
    cavityStamp.resize(tris.size(), 0);
    cavity.clear();
    stack.clear();
    stack.push_back(seed);
    cavityStamp[static_cast<std::size_t>(seed)] = stamp;
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      cavity.push_back(t);
      for (int e = 0; e < 3; ++e) {
        const int n = tris[t].nbr[e];
        if (n == kNone || inCavity(n)) continue;
        if (inCircumcircle(n, p)) {
          cavityStamp[static_cast<std::size_t>(n)] = stamp;
          stack.push_back(n);
        }
      }
    }

    // Boundary edges of the cavity, each with its outside neighbor.
    boundary.clear();
    for (int t : cavity) {
      for (int e = 0; e < 3; ++e) {
        const int n = tris[t].nbr[e];
        if (n != kNone && inCavity(n)) continue;
        boundary.push_back(
            {tris[t].v[(e + 1) % 3], tris[t].v[(e + 2) % 3], n, kNone});
      }
    }
    for (int t : cavity) tris[t].alive = false;

    // Fan of new triangles from p to each boundary edge. Triangle verts are
    // {pi, a, b}: nbr[0] spans the boundary edge (a, b), nbr[1] the edge
    // (b, pi), nbr[2] the edge (pi, a).
    for (BoundaryEdge& be : boundary) {
      const int t = newTriangle(pi, be.a, be.b);
      be.tri = t;
      tris[t].nbr[0] = be.outside;
      if (be.outside != kNone) {
        for (int e = 0; e < 3; ++e) {
          const Tri& out = tris[be.outside];
          if (out.v[(e + 1) % 3] == be.b && out.v[(e + 2) % 3] == be.a) {
            tris[be.outside].nbr[e] = t;
            break;
          }
        }
      }
    }
    // Stitch fan triangles to each other across shared (pi, x) edges: the
    // neighbor across (pi, a) is the fan triangle whose boundary edge ends
    // at a (b == a), and across (b, pi) the one whose edge starts at b.
    // The boundary cycle is a handful of edges, so the linear probe is
    // cheaper than the edge map it replaces — and each directed edge has at
    // most one reverse, so the wiring is the same.
    for (const BoundaryEdge& be : boundary) {
      for (const BoundaryEdge& other : boundary) {
        if (other.b == be.a) tris[be.tri].nbr[2] = other.tri;
        if (other.a == be.b) tris[be.tri].nbr[1] = other.tri;
      }
    }
    lastAlive = boundary.empty() ? kNone : boundary.back().tri;
  }
};

/// Per-thread construction scratch (scenarios never share a thread
/// mid-build; the sweep engine runs whole scenarios per worker).
Builder& builderScratch() {
  static thread_local Builder b;
  return b;
}

/// Maps every point onto the lowest index holding the same coordinates
/// (`duplicateOf[i] == i` for canonical points) and returns the number of
/// distinct points. Sorts indices by (point, index) and maps every later
/// member of an equal run onto the run's lowest index — the same canonical
/// representative the old first-insert-wins map produced, without the
/// per-point tree insert. `order` is scratch.
std::size_t mergeDuplicates(const std::vector<Point2>& points,
                            std::vector<int>& duplicateOf,
                            std::vector<int>& order) {
  const std::size_t n = points.size();
  duplicateOf.resize(n);
  std::iota(duplicateOf.begin(), duplicateOf.end(), 0);
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&points](int x, int y) {
    if (points[x].x != points[y].x) return points[x].x < points[y].x;
    if (points[x].y != points[y].y) return points[x].y < points[y].y;
    return x < y;
  });
  std::size_t numUnique = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && points[order[j]] == points[order[i]]) ++j;
    const int canon = order[i];  // lowest index in the equal run
    for (std::size_t k = i + 1; k < j; ++k) duplicateOf[order[k]] = canon;
    ++numUnique;
    i = j;
  }
  return numUnique;
}

/// Bounding super-triangle of the canonical points, far enough away to act
/// as "infinity".
std::array<Point2, 3> superTriangle(const std::vector<Point2>& points,
                                    const std::vector<int>& duplicateOf) {
  bool haveBounds = false;
  double minX = 0, maxX = 0, minY = 0, maxY = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (duplicateOf[i] != static_cast<int>(i)) continue;
    if (!haveBounds) {
      minX = maxX = points[i].x;
      minY = maxY = points[i].y;
      haveBounds = true;
      continue;
    }
    minX = std::min(minX, points[i].x);
    maxX = std::max(maxX, points[i].x);
    minY = std::min(minY, points[i].y);
    maxY = std::max(maxY, points[i].y);
  }
  const double cx = (minX + maxX) / 2.0;
  const double cy = (minY + maxY) / 2.0;
  const double extent = std::max({maxX - minX, maxY - minY, 1.0});
  const double m = 1e6 * extent;
  return {{{cx - 2.0 * m, cy - m}, {cx + 2.0 * m, cy - m}, {cx, cy + 2.0 * m}}};
}

}  // namespace

Delaunay Delaunay::build(const std::vector<Point2>& points) {
  Delaunay result;
  buildInto(result, points);
  return result;
}

void Delaunay::buildInto(Delaunay& result, const std::vector<Point2>& points) {
  const std::size_t n = points.size();
  result.numInput_ = n;
  result.realTriangles_.clear();
  result.realEdges_.clear();
  result.adjOff_.assign(n + 1, 0);
  result.adjFlat_.clear();

  Builder& b = builderScratch();
  const std::size_t numUnique =
      mergeDuplicates(points, result.duplicateOf_, b.sortIdx);

  if (numUnique < 2) return;
  if (numUnique == 2) {
    int first = -1, second = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (result.duplicateOf_[i] != static_cast<int>(i)) continue;
      (first < 0 ? first : second) = static_cast<int>(i);
    }
    result.realEdges_.emplace_back(first, second);
    result.adjOff_[static_cast<std::size_t>(first) + 1] = 1;
    result.adjOff_[static_cast<std::size_t>(second) + 1] = 1;
    for (std::size_t v = 0; v < n; ++v) result.adjOff_[v + 1] += result.adjOff_[v];
    result.adjFlat_.assign(2, 0);
    result.adjFlat_[result.adjOff_[static_cast<std::size_t>(first)]] = second;
    result.adjFlat_[result.adjOff_[static_cast<std::size_t>(second)]] = first;
    return;
  }

  b.reset(points);
  const auto super = superTriangle(points, result.duplicateOf_);
  b.pts.insert(b.pts.end(), super.begin(), super.end());
  const int s0 = static_cast<int>(n);
  b.lastAlive = b.newTriangle(s0, s0 + 1, s0 + 2);

  // Insert unique points in original input order (the order affects which
  // of several valid triangulations degenerate cocircular sets settle on,
  // so it must stay what it always was).
  for (std::size_t i = 0; i < n; ++i) {
    if (result.duplicateOf_[i] == static_cast<int>(i)) {
      b.insert(static_cast<int>(i));
    }
  }

  // Extract real triangles and edges (those not touching super vertices).
  b.edgeScratch.clear();
  for (const Tri& t : b.tris) {
    if (!t.alive) continue;
    if (t.v[0] < s0 && t.v[1] < s0 && t.v[2] < s0) {
      result.realTriangles_.push_back(t.v);
    }
    for (int e = 0; e < 3; ++e) {
      const int u = t.v[(e + 1) % 3];
      const int v = t.v[(e + 2) % 3];
      if (u < s0 && v < s0) {
        b.edgeScratch.emplace_back(std::min(u, v), std::max(u, v));
      }
    }
  }
  std::sort(b.edgeScratch.begin(), b.edgeScratch.end());
  b.edgeScratch.erase(
      std::unique(b.edgeScratch.begin(), b.edgeScratch.end()),
      b.edgeScratch.end());
  result.realEdges_.assign(b.edgeScratch.begin(), b.edgeScratch.end());

  // CSR adjacency. Appending both directions in lexicographic edge order
  // fills every vertex's slice in ascending order ((a, v) edges with a < v
  // sort before every (v, b) edge), so no per-slice sort is needed.
  for (const auto& [u, v] : result.realEdges_) {
    ++result.adjOff_[static_cast<std::size_t>(u) + 1];
    ++result.adjOff_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    result.adjOff_[v + 1] += result.adjOff_[v];
  }
  result.adjFlat_.resize(result.adjOff_[n]);
  {
    // Reuse sortIdx as the per-vertex fill cursor.
    b.sortIdx.assign(n, 0);
    for (const auto& [u, v] : result.realEdges_) {
      const auto su = static_cast<std::size_t>(u);
      const auto sv = static_cast<std::size_t>(v);
      result.adjFlat_[result.adjOff_[su] +
                      static_cast<std::uint32_t>(b.sortIdx[su]++)] = v;
      result.adjFlat_[result.adjOff_[sv] +
                      static_cast<std::uint32_t>(b.sortIdx[sv]++)] = u;
    }
  }
}

bool Delaunay::starInto(std::vector<int>& out,
                        const std::vector<Point2>& points) {
  if (points.empty()) throw std::out_of_range{"Delaunay::starInto: no points"};
  out.clear();
  const std::size_t n = points.size();
  Builder& b = builderScratch();
  mergeDuplicates(points, b.starDuplicateOf, b.sortIdx);
  const auto super = superTriangle(points, b.starDuplicateOf);
  const Point2 p = points[0];
  const auto at = [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    return u < n ? points[u] : super[u - n];
  };

  // Every canonical point but p, and the super vertices, which put p
  // strictly inside the hull: consecutive rays are less than pi apart.
  b.ring.clear();
  for (std::size_t i = 1; i < n; ++i) {
    if (b.starDuplicateOf[i] == static_cast<int>(i)) {
      b.ring.push_back({static_cast<int>(i), 0, 0, false});
    }
  }
  for (int s = 0; s < 3; ++s) {
    b.ring.push_back({static_cast<int>(n) + s, 0, 0, false});
  }

  // Exact angular order around p: upper half-plane (angle in [0, pi)) first,
  // then by orientation within a half. Two points on one ray refuse.
  const auto lowerHalf = [p](Point2 q) {
    return q.y < p.y || (q.y == p.y && q.x < p.x);
  };
  std::sort(b.ring.begin(), b.ring.end(),
            [&](const Builder::RingNode& x, const Builder::RingNode& y) {
              const Point2 qx = at(x.id), qy = at(y.id);
              const bool hx = lowerHalf(qx), hy = lowerHalf(qy);
              if (hx != hy) return hy;
              return orient2d(p, qx, qy) > 0.0;
            });
  const int m = static_cast<int>(b.ring.size());
  for (int k = 0; k < m; ++k) {
    b.ring[k].prev = (k + m - 1) % m;
    b.ring[k].next = (k + 1) % m;
    const Point2 q = at(b.ring[k].id);
    const Point2 r = at(b.ring[b.ring[k].next].id);
    if (lowerHalf(q) == lowerHalf(r) && orient2d(p, q, r) == 0.0) return false;
  }

  // p's neighbours are the hull vertices of the points inverted about p
  // (Brown 1979), and incircle(a, b, c, p) has the sign of the inverted
  // turn a'b'c'. A strictly reflex b' lies strictly inside triangle p a' c',
  // so it is deleted; deleting it changes only its neighbours' turns, which
  // are re-checked. Any zero turn refuses, so a star returned here had
  // only strict signs: it is unique, hence the one buildInto settles on.
  std::size_t pending = b.ring.size();  // survivors not yet confirmed convex
  for (int k = 0; pending > 0;) {
    Builder::RingNode& node = b.ring[k];
    if (node.convex) {
      k = node.next;
      continue;
    }
    const double turn = incircle(at(b.ring[node.prev].id), at(node.id),
                                 at(b.ring[node.next].id), p);
    if (turn == 0.0) return false;
    --pending;
    if (turn > 0.0) {
      node.convex = true;
      k = node.next;
      continue;
    }
    for (const int nb : {node.prev, node.next}) {
      if (b.ring[nb].convex) {
        b.ring[nb].convex = false;
        ++pending;
      }
    }
    b.ring[node.prev].next = node.next;
    b.ring[node.next].prev = node.prev;
    k = node.prev;
  }
  for (const Builder::RingNode& node : b.ring) {
    if (node.convex && node.id < static_cast<int>(n)) out.push_back(node.id);
  }
  std::sort(out.begin(), out.end());
  return true;
}

std::vector<int> Delaunay::neighborsOf(int v) const {
  const auto span = neighbors(v);
  return {span.begin(), span.end()};
}

std::span<const int> Delaunay::neighbors(int v) const {
  if (v < 0 || static_cast<std::size_t>(v) + 1 >= adjOff_.size()) {
    throw std::out_of_range{"Delaunay::neighbors: bad vertex"};
  }
  const auto i = static_cast<std::size_t>(v);
  return {adjFlat_.data() + adjOff_[i], adjFlat_.data() + adjOff_[i + 1]};
}

bool Delaunay::hasEdge(int u, int v) const {
  if (u < 0 || static_cast<std::size_t>(u) + 1 >= adjOff_.size()) return false;
  const auto span = neighbors(u);
  return std::binary_search(span.begin(), span.end(), v);
}

std::vector<int> convexHull(const std::vector<Point2>& points) {
  std::vector<int> idx(points.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int a, int b) {
    return points[a] < points[b];
  });
  idx.erase(std::unique(idx.begin(), idx.end(),
                        [&](int a, int b) { return points[a] == points[b]; }),
            idx.end());
  const std::size_t n = idx.size();
  if (n < 3) return idx;

  std::vector<int> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower hull
    while (k >= 2 && orient2d(points[hull[k - 2]], points[hull[k - 1]],
                              points[idx[i]]) <= 0.0) {
      --k;
    }
    hull[k++] = idx[i];
  }
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {  // upper hull
    while (k >= t && orient2d(points[hull[k - 2]], points[hull[k - 1]],
                              points[idx[i]]) <= 0.0) {
      --k;
    }
    hull[k++] = idx[i];
  }
  hull.resize(k - 1);
  return hull;
}

}  // namespace glr::geom
