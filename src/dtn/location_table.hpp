#pragma once
/// \file location_table.hpp
/// Per-node table of other nodes' last known locations with timestamps
/// (paper Sec. 2.3.1): fed by hello exchanges and by destination-location
/// fields in message headers; always keeps the freshest observation. The
/// owner chooses which ids to record: a GLR agent looks the table up only
/// for a message's destination, so it records only ids that can be one
/// (GlrParams::destinationIds), not every node it hears of.

#include <optional>
#include <unordered_map>

#include "geometry/point.hpp"
#include "sim/simulator.hpp"

namespace glr::dtn {

class LocationTable {
 public:
  struct Entry {
    geom::Point2 pos;
    sim::SimTime at = -1e18;
  };

  /// Records an observation; keeps it only if fresher than what is stored.
  /// Returns true if the table was updated.
  bool update(int id, geom::Point2 pos, sim::SimTime at) {
    auto [it, inserted] = table_.try_emplace(id, Entry{pos, at});
    if (inserted) return true;
    if (at > it->second.at) {
      it->second = {pos, at};
      return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<Entry> lookup(int id) const {
    const auto it = table_.find(id);
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Drops every observation older than `olderThan`. The table is a pure
  /// key-value lookup (nothing iterates it), so pruning is only observable
  /// when a later lookup would have returned one of the dropped, very-stale
  /// entries. City-scale runs call this periodically so a node keeps only
  /// the destinations it has heard of recently, not every one it ever has.
  void prune(sim::SimTime olderThan) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.at < olderThan) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Checkpoint support: although the table is a pure key-value lookup, it
  /// is saved/restored with the order-preserving container codec so a
  /// restored node is byte-for-byte in the snapshotted state (prune() does
  /// iterate, and keeping every container on one policy is cheaper than
  /// proving order-independence per call site).
  template <class Ar>
  void visit(Ar& ar);

 private:
  std::unordered_map<int, Entry> table_;
};

}  // namespace glr::dtn
