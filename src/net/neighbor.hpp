#pragma once
/// \file neighbor.hpp
/// IMEP-like neighbor/location sensing via periodic hello beacons.
///
/// The paper layers GLR on top of ns-2's IMEP, whose Link/Connection Status
/// Sensing exchanges per-neighbor state at a fixed interval; the authors
/// extend its header with node locations. We model the same mechanism
/// directly: each node broadcasts a hello carrying its id, position and its
/// current 1-hop neighbor table (ids + positions + timestamps), which gives
/// receivers exactly the distance-2 knowledge the paper's LDTG construction
/// uses. Because beacons are periodic, positions known to neighbors are
/// slightly stale — the same artifact the paper notes for IMEP.

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geometry/point.hpp"
#include "mac/mac.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spanner/ldtg.hpp"

namespace glr::net {

/// In-simulator hello beacon payload.
struct HelloPayload {
  struct Entry {
    int id = -1;
    geom::Point2 pos;
    sim::SimTime heardAt = 0;  // when the sender last heard this neighbor

    template <class Ar>
    void visit(Ar& ar);  // checkpoint support
  };
  int id = -1;
  geom::Point2 pos;
  sim::SimTime sentAt = 0;
  std::vector<Entry> neighbors;  // sender's fresh 1-hop table
};

/// Packet kind tag used by the service.
inline constexpr const char* kHelloKind = "hello";

class NeighborService {
 public:
  struct Params {
    double helloInterval = 0.75;   // seconds between beacons
    double expiry = 2.0;           // neighbor freshness horizon (seconds)
    std::size_t baseBytes = 20;    // id + position + timestamp
    std::size_t perNeighborBytes = 12;
    bool includeNeighborList = true;  // piggyback 1-hop table (2-hop info)
    /// Expected 1-hop neighborhood size; the table reserves this many
    /// buckets up front so steady-state hello handling never rehashes.
    std::size_t expectedNeighbors = 32;
    /// Steady-state memory bound for long/large runs: records that have
    /// been stale for more than `evictAfterFactor * expiry` seconds are
    /// erased during the beacon sweep. 0 (default) keeps every record for
    /// the life of the node — the historical behavior the goldens were
    /// recorded under. Eviction never changes which neighbors are *fresh*,
    /// but re-inserting a previously-erased id can land at a different
    /// hash-table position than an in-place update would have, which can
    /// reorder hello payloads — hence opt-in rather than always-on.
    double evictAfterFactor = 0.0;
  };

  /// New-contact callback: fires when a hello arrives from a node that was
  /// not a fresh neighbor (first contact or re-contact after expiry).
  using ContactCallback = std::function<void(int id)>;
  /// Location sample: every position observation carried by hellos
  /// (sender position and piggybacked 2-hop entries), with its timestamp.
  using LocationSampleCallback =
      std::function<void(int id, geom::Point2 pos, sim::SimTime at)>;

  NeighborService(sim::Simulator& sim, mac::Mac& mac, int self,
                  std::function<geom::Point2()> myPosition, Params params,
                  sim::Rng rng);

  /// Begins periodic beaconing (first beacon after a random sub-interval
  /// offset so nodes don't beacon in lockstep).
  void start();

  /// Feed packets from Agent::onPacket; returns true if it was a hello and
  /// has been consumed.
  bool handlePacket(const Packet& packet, int fromMac);

  void setContactCallback(ContactCallback cb) { onContact_ = std::move(cb); }
  void setLocationSampleCallback(LocationSampleCallback cb) {
    onLocationSample_ = std::move(cb);
  }

  /// Forgets all neighbor/location state. The churn layer calls this when
  /// the node's radio duty-cycles off: on wake, everything in the table
  /// would be stale beyond the expiry horizon, and a cold start matches
  /// what a real rebooted radio knows. Beaconing continues unchanged (the
  /// MAC drops hellos while down).
  void reset() { table_.clear(); }

  /// Fresh 1-hop neighbor ids (heard within expiry), sorted.
  [[nodiscard]] std::vector<int> currentNeighbors() const;
  [[nodiscard]] bool isNeighbor(int id) const;
  /// Last known position of a fresh 1-hop neighbor.
  [[nodiscard]] std::optional<geom::Point2> neighborPosition(int id) const;

  /// Replaces `out` with the node's <= 2-hop knowledge for LDTG
  /// construction: fresh 1-hop neighbors (as oneHop) in table order, then
  /// the nodes they reported (as two-hop), deduplicated keeping the freshest
  /// observation. Runs once per route check; with a reused `out` it is
  /// allocation-free once the thread's id table covers the ids seen.
  void knowledge(std::vector<spanner::KnownNode>& out) const;

  [[nodiscard]] std::uint64_t hellosSent() const { return hellosSent_; }
  [[nodiscard]] std::uint64_t hellosReceived() const { return hellosReceived_; }
  /// Beacons the MAC refused (queue full / radio down). A dropped hello
  /// only delays neighbor discovery by one interval, but under saturation
  /// these must be visible, not silent.
  [[nodiscard]] std::uint64_t helloSendFailures() const {
    return helloSendFailures_;
  }

  /// Checkpoint support. The neighbor table's *iteration order* is
  /// observable (it drives hello payload order and knowledge(), which drive
  /// LDTG construction and routing), so it round-trips through the
  /// order-preserving container codec.
  template <class Ar>
  void visit(Ar& ar);

  /// Re-creates a pending hello beacon event under its original key
  /// (restore path; see checkpoint/event_kinds.hpp kHello).
  void restoreHelloEvent(const sim::EventKey& key);

 private:
  struct NeighborRecord {
    geom::Point2 pos;
    sim::SimTime heard = -1e18;
    std::vector<HelloPayload::Entry> reported;
  };

  void sendHello();
  [[nodiscard]] bool fresh(const NeighborRecord& r) const;

  sim::Simulator& sim_;
  mac::Mac& mac_;
  int self_;
  std::function<geom::Point2()> myPosition_;
  Params params_;
  sim::Rng rng_;

  std::unordered_map<int, NeighborRecord> table_;
  ContactCallback onContact_;
  LocationSampleCallback onLocationSample_;
  std::uint64_t hellosSent_ = 0;
  std::uint64_t hellosReceived_ = 0;
  std::uint64_t helloSendFailures_ = 0;
};

}  // namespace glr::net
