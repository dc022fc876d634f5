#include "core/trees.hpp"

#include <algorithm>

namespace glr::core {

void progressNeighbors(
    geom::Point2 selfPos, geom::Point2 destPos,
    const std::vector<std::pair<int, geom::Point2>>& neighbors,
    std::vector<ProgressNeighbor>& out) {
  const double selfDist = geom::dist(selfPos, destPos);
  out.clear();
  for (const auto& [id, pos] : neighbors) {
    const double d = geom::dist(pos, destPos);
    if (d < selfDist) out.push_back({id, pos, d});
  }
  std::sort(out.begin(), out.end(),
            [](const ProgressNeighbor& a, const ProgressNeighbor& b) {
              if (a.distToDest != b.distToDest) {
                return a.distToDest < b.distToDest;
              }
              return a.id < b.id;  // deterministic tie-break
            });
}

std::optional<ProgressNeighbor> selectNextHop(
    dtn::TreeFlag flag, const std::vector<ProgressNeighbor>& candidates) {
  if (candidates.empty()) return std::nullopt;
  const std::size_t n = candidates.size();
  switch (flag) {
    case dtn::TreeFlag::kNone:
    case dtn::TreeFlag::kMax:
      return candidates.front();
    case dtn::TreeFlag::kMin:
      return candidates.back();
    default: {
      // Mid variants: walk outward from the median so distinct variants
      // prefer distinct neighbors when enough candidates exist.
      const auto variant =
          static_cast<std::size_t>(flag) -
          static_cast<std::size_t>(dtn::TreeFlag::kMid);
      std::size_t idx = n / 2;
      // Offsets 0, +1, -1, +2, -2, ... clamped into range.
      const std::size_t step = (variant + 1) / 2;
      if (variant % 2 == 1 && idx + step < n) {
        idx += step;
      } else if (variant % 2 == 0 && variant > 0 && idx >= step) {
        idx -= step;
      }
      return candidates[std::min(idx, n - 1)];
    }
  }
}

std::vector<dtn::TreeFlag> treeFlagsForCopies(int copies) {
  copies = std::clamp(copies, 1, kMaxCopies);
  std::vector<dtn::TreeFlag> flags{dtn::TreeFlag::kMax};
  if (copies >= 2) flags.push_back(dtn::TreeFlag::kMin);
  for (int i = 2; i < copies; ++i) {
    flags.push_back(static_cast<dtn::TreeFlag>(
        static_cast<std::uint8_t>(dtn::TreeFlag::kMid) + (i - 2)));
  }
  return flags;
}

std::vector<int> extractPath(const graph::Graph& g,
                             const std::vector<geom::Point2>& positions,
                             int src, geom::Point2 destPos,
                             dtn::TreeFlag flag, int maxHops) {
  std::vector<int> path{src};
  std::vector<std::pair<int, geom::Point2>> nbrs;
  std::vector<ProgressNeighbor> cands;
  int cur = src;
  for (int hop = 0; hop < maxHops; ++hop) {
    nbrs.clear();
    for (int v : g.neighbors(cur)) nbrs.emplace_back(v, positions[v]);
    progressNeighbors(positions[cur], destPos, nbrs, cands);
    const auto next = selectNextHop(flag, cands);
    if (!next.has_value()) break;
    cur = next->id;
    path.push_back(cur);
    if (positions[cur] == destPos) break;
  }
  return path;
}

}  // namespace glr::core
