#include "spanner/ldtg.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "geometry/delaunay.hpp"
#include "spanner/udg.hpp"

namespace glr::spanner {

namespace {

/// Canonical 64-bit key for an undirected edge between global node ids.
[[nodiscard]] std::uint64_t edgeKey(int u, int v) {
  const auto lo = static_cast<std::uint32_t>(std::min(u, v));
  const auto hi = static_cast<std::uint32_t>(std::max(u, v));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Delaunay edge set of a subset of global nodes, keyed by global ids.
[[nodiscard]] std::unordered_set<std::uint64_t> localDelaunayEdges(
    const std::vector<geom::Point2>& positions,
    const std::vector<int>& members) {
  std::unordered_set<std::uint64_t> out;
  std::vector<geom::Point2> pts;
  pts.reserve(members.size());
  for (int id : members) pts.push_back(positions[id]);
  const auto dt = geom::Delaunay::build(pts);
  for (const auto& [a, b] : dt.edges()) {
    out.insert(edgeKey(members[a], members[b]));
  }
  // Map duplicate-position members onto their canonical representative's
  // edges so membership tests by global id still succeed.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int canon = dt.canonicalIndex(static_cast<int>(i));
    if (canon != static_cast<int>(i)) {
      out.insert(edgeKey(members[i], members[canon]));
    }
  }
  return out;
}

}  // namespace

graph::Graph buildLdtg(const std::vector<geom::Point2>& positions,
                       double radius, int k, LdtgRule rule) {
  const std::size_t n = positions.size();
  const graph::Graph udg = buildUnitDiskGraph(positions, radius);

  // Per-node k-hop member lists and local Delaunay edge sets.
  std::vector<std::vector<int>> kHood(n);
  std::vector<std::unordered_set<std::uint64_t>> dtEdges(n);
  std::vector<std::unordered_set<int>> kHoodSet(n);
  for (std::size_t u = 0; u < n; ++u) {
    auto members = kHopNeighbors(udg, static_cast<int>(u), k);
    members.push_back(static_cast<int>(u));
    std::sort(members.begin(), members.end());
    kHood[u] = members;
    kHoodSet[u].insert(members.begin(), members.end());
    dtEdges[u] = localDelaunayEdges(positions, members);
  }

  graph::Graph out{n};
  for (const auto& [u, v] : udg.edges()) {
    const std::uint64_t key = edgeKey(u, v);
    if (!dtEdges[u].contains(key) || !dtEdges[v].contains(key)) continue;
    if (rule == LdtgRule::PaperWitness) {
      bool vetoed = false;
      // Witnesses are the 1-hop neighbors of either endpoint that can see
      // both endpoints in their own k-hop neighborhood.
      for (int endpoint : {u, v}) {
        for (int w : udg.neighbors(endpoint)) {
          if (w == u || w == v) continue;
          if (!kHoodSet[w].contains(u) || !kHoodSet[w].contains(v)) continue;
          if (!dtEdges[w].contains(key)) {
            vetoed = true;
            break;
          }
        }
        if (vetoed) break;
      }
      if (vetoed) continue;
    }
    out.addEdge(u, v);
  }
  return out;
}

namespace {

/// Reused workspace for localSpannerNeighbors: the GLR route check runs it
/// on every check interval for every node. Persisting the point buffers, the
/// star and the fallback Delaunay result object (rebuilt in place via
/// Delaunay::buildInto) makes the steady-state spanner path allocation-free
/// apart from the returned neighbor list.
struct SpannerScratch {
  std::vector<int> ids;
  std::vector<geom::Point2> pts;
  std::vector<char> oneHop;
  std::vector<int> star;
  geom::Delaunay dt;

  // Generation-stamped dedup table indexed by (dense, non-negative) node
  // id: seen(id) is O(1) and the per-call "clear" is one counter bump —
  // an unordered_map here would free and reallocate one node per neighbor
  // on every route check. Ids outside the table (negative) fall back to a
  // linear probe of `ids`, which preserves the old map's semantics for
  // arbitrary callers.
  std::vector<std::uint32_t> idStamp;
  std::uint32_t stamp = 0;

  void beginDedup() {
    if (stamp == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(idStamp.begin(), idStamp.end(), 0);
      stamp = 0;
    }
    ++stamp;
  }

  /// True the first time `id` is offered since beginDedup().
  [[nodiscard]] bool firstSeen(int id) {
    if (id < 0) {
      for (int known : ids) {
        if (known == id) return false;
      }
      return true;
    }
    const auto i = static_cast<std::size_t>(id);
    if (i >= idStamp.size()) idStamp.resize(i + 1, 0);
    if (idStamp[i] == stamp) return false;
    idStamp[i] = stamp;
    return true;
  }
};

SpannerScratch& spannerScratch() {
  static thread_local SpannerScratch s;
  return s;
}

/// localSpannerNeighbors calls on this thread since the last
/// resetLocalSpannerCache().
std::uint64_t& spannerComputations() {
  static thread_local std::uint64_t n = 0;
  return n;
}

}  // namespace

SpannerCacheStats localSpannerCacheStats() {
  return {0, spannerComputations()};
}

void resetLocalSpannerCache() { spannerComputations() = 0; }

std::vector<int> localSpannerNeighbors(int selfId, geom::Point2 selfPos,
                                       const std::vector<KnownNode>& known,
                                       double radius) {
  ++spannerComputations();
  const double r2 = radius * radius;
  SpannerScratch& s = spannerScratch();

  // Assemble the local point set: self first, then known nodes (dedup ids).
  s.beginDedup();
  s.ids.assign(1, selfId);
  s.pts.assign(1, selfPos);
  (void)s.firstSeen(selfId);
  s.oneHop.assign(1, 1);
  for (const KnownNode& kn : known) {
    if (kn.id == selfId || !s.firstSeen(kn.id)) continue;
    s.ids.push_back(kn.id);
    s.pts.push_back(kn.pos);
    s.oneHop.push_back(kn.oneHop ? 1 : 0);
  }
  if (s.ids.size() < 2) return {};

  // Self's star in the Delaunay triangulation of the whole local view
  // (LDel(2) at this node), triangulated only when the star sweep meets a
  // tie: keep every edge whose other endpoint is a direct neighbor in range.
  if (!geom::Delaunay::starInto(s.star, s.pts)) {
    geom::Delaunay::buildInto(s.dt, s.pts);
    const auto nbrs = s.dt.neighbors(s.dt.canonicalIndex(0));
    s.star.assign(nbrs.begin(), nbrs.end());
  }
  std::vector<int> accepted;
  for (int nb : s.star) {
    const auto i = static_cast<std::size_t>(nb);
    if (i == 0 || !s.oneHop[i]) continue;
    if (geom::dist2(selfPos, s.pts[i]) > r2) continue;
    accepted.push_back(s.ids[i]);
  }
  std::sort(accepted.begin(), accepted.end());
  return accepted;
}

}  // namespace glr::spanner
