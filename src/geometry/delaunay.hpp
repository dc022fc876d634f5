#pragma once
/// \file delaunay.hpp
/// Delaunay triangulation via incremental Bowyer–Watson insertion.
///
/// Built on the exact predicates in predicates.hpp, so degenerate inputs
/// (collinear subsets, cocircular quadruples, duplicate points) are handled
/// deterministically. Duplicates are merged onto their first occurrence.
///
/// The triangulation is the basis for the localized Delaunay spanner (LDTG)
/// of the paper: at each route check a node keeps its own incident edges in
/// the triangulation of its 2-hop view (LDel(2)). `starInto` computes just
/// that star by an angular sweep, and the view is triangulated only when the
/// sweep meets a tie. Witness vetoes exist only in the global analysis
/// builder: a subset of the view that holds both ends of a Delaunay edge
/// keeps that edge's empty circle empty, so a witness judging part of the
/// node's own view could never veto (spanner/ldtg.hpp).

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"

namespace glr::geom {

/// Immutable Delaunay triangulation of a point set.
class Delaunay {
 public:
  /// Triangulates `points`. Indices in the result refer to positions in the
  /// input vector. Handles n == 0, 1, 2 and fully collinear inputs (in which
  /// case there are no triangles; `edges()` still reports the collinear path
  /// induced by the triangulation with the bounding super-triangle).
  static Delaunay build(const std::vector<Point2>& points);

  /// build() into an existing object, reusing its storage. A GLR route
  /// check whose view starInto refuses triangulates it and discards the
  /// result; rebuilding into one scratch object (plus the thread-local
  /// builder scratch inside) keeps that path allocation-free too.
  /// Produces exactly what build() produces.
  static void buildInto(Delaunay& out, const std::vector<Point2>& points);

  /// Writes to `out` the neighbours of `points[0]` in exactly the
  /// triangulation buildInto(points) would build, ascending, without building
  /// it: the star is the hull of the other points inverted about points[0]
  /// (Brown, "Voronoi diagrams from convex hulls", IPL 1979). Returns false,
  /// with `out` unspecified, when the sweep meets a tie (two points on one
  /// ray from points[0], or four cocircular); the caller then triangulates.
  /// Allocation-free once the thread's scratch and `out` have grown.
  /// `points` must not be empty.
  [[nodiscard]] static bool starInto(std::vector<int>& out,
                                     const std::vector<Point2>& points);

  /// CCW-oriented triangles on input points only (super vertices removed).
  [[nodiscard]] const std::vector<std::array<int, 3>>& triangles() const {
    return realTriangles_;
  }

  /// Unique undirected edges (u < v) between input points.
  [[nodiscard]] const std::vector<std::pair<int, int>>& edges() const {
    return realEdges_;
  }

  /// Adjacent input vertices of `v` in the triangulation.
  [[nodiscard]] std::vector<int> neighborsOf(int v) const;

  /// Allocation-free view of neighborsOf (ascending vertex ids).
  [[nodiscard]] std::span<const int> neighbors(int v) const;

  /// True if `u` and `v` share a triangulation edge.
  [[nodiscard]] bool hasEdge(int u, int v) const;

  /// Number of input points (including duplicates).
  [[nodiscard]] std::size_t pointCount() const { return numInput_; }

  /// If `i` duplicated an earlier point, the index it was merged into;
  /// otherwise `i` itself.
  [[nodiscard]] int canonicalIndex(int i) const { return duplicateOf_[i]; }

 private:
  std::size_t numInput_ = 0;
  std::vector<std::array<int, 3>> realTriangles_;
  std::vector<std::pair<int, int>> realEdges_;
  // Adjacency in CSR form: neighbors of v are adjFlat_[adjOff_[v] ..
  // adjOff_[v+1]), sorted ascending. Flat arrays so buildInto can reuse
  // capacity across rebuilds (a vector-of-vectors would reallocate each
  // inner list every time).
  std::vector<std::uint32_t> adjOff_;
  std::vector<int> adjFlat_;
  std::vector<int> duplicateOf_;
};

/// Convex hull (Andrew monotone chain) of `points`; returns indices of hull
/// vertices in CCW order, collinear boundary points excluded. Degenerate
/// inputs yield fewer than 3 indices.
[[nodiscard]] std::vector<int> convexHull(const std::vector<Point2>& points);

}  // namespace glr::geom
