#pragma once
/// \file ldtg.hpp
/// k-Local Delaunay Triangulation Graph (LDTG) — the paper's planar spanner.
///
/// `buildLdtg` is the *global analysis* builder (it uses true k-hop sets) and
/// offers two rules:
///
///  * `LdtgRule::PaperWitness` — the paper's rule: a UDG link uv is accepted
///    iff uv is an edge of the Delaunay triangulation of N_k(u) (and of
///    N_k(v)), and every 1-hop witness w of u (and of v) that has both u and
///    v in its k-hop neighborhood also sees uv in the Delaunay triangulation
///    of N_k(w). A witness's true k-hop set reaches nodes u and v cannot see,
///    so here a witness can veto.
///
///  * `LdtgRule::LDel` — Li/Calinescu/Wan LDel(k): uv accepted iff uv is in
///    the Delaunay triangulations of both N_k(u) and N_k(v) (no witnesses).
///    May be non-planar for k = 1.
///
/// `localSpannerNeighbors` is the *distributed per-node* computation used by
/// the protocol agent: it consumes exactly the knowledge a node has gathered
/// from hello beacons (its <= 2-hop neighbor positions) and returns the
/// node's LDel(2) star. It has no witness step. A witness could only judge
/// the part of the node's own view S within range of it, and a subset of S
/// that holds u and v keeps empty the circle that made uv an edge of Del(S),
/// so the paper's veto never fires there (test_delaunay pins this subset
/// property on random points). Planarity does not need it: LDel(k) is planar
/// for k >= 2 (Li, Calinescu and Wan, INFOCOM 2002).

#include <cstdint>
#include <vector>

#include "geometry/point.hpp"
#include "graph/graph.hpp"

namespace glr::spanner {

enum class LdtgRule {
  PaperWitness,
  LDel,
};

/// Global LDTG over all positions (analysis/testing use).
[[nodiscard]] graph::Graph buildLdtg(
    const std::vector<geom::Point2>& positions, double radius, int k = 2,
    LdtgRule rule = LdtgRule::PaperWitness);

/// A node's local knowledge of one other node, as gathered from beacons.
struct KnownNode {
  int id = -1;
  geom::Point2 pos;
  /// True if this node is a direct (1-hop) neighbor of the computing node.
  bool oneHop = false;
};

/// Distributed per-node LDTG edge selection.
///
/// `selfId`/`selfPos` describe the computing node; `known` is its gathered
/// 2-hop knowledge (positions may be slightly stale, exactly as in the
/// protocol). Returns the ids of the direct neighbors within `radius` that
/// share an edge with the node in the Delaunay triangulation of its whole
/// view, sorted. The node's star comes from one angular sweep
/// (Delaunay::starInto); the view is triangulated only when the sweep meets
/// a tie (points on one ray from the node, or four cocircular), and both
/// paths give the same star.
///
/// Nothing is memoised: on glrbench's golden, saturated and sweep workloads
/// no route check repeated its node's previous inputs bit for bit (positions
/// move between checks), so a memo would only add a compare and a copy of
/// the whole view to every call.
[[nodiscard]] std::vector<int> localSpannerNeighbors(
    int selfId, geom::Point2 selfPos, const std::vector<KnownNode>& known,
    double radius);

/// Per-thread localSpannerNeighbors call counts, read by glrbench. `hits`
/// is always 0: it stays only until glrbench drops `spanner.memo_hits`.
struct SpannerCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // star computations on this thread
};
[[nodiscard]] SpannerCacheStats localSpannerCacheStats();

/// Zeroes this thread's counts (runScenario calls it at the start of every
/// run).
void resetLocalSpannerCache();

}  // namespace glr::spanner
