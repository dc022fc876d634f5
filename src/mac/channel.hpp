#pragma once
/// \file channel.hpp
/// Shared wireless medium: propagation, interference and frame delivery.
///
/// On transmission start the channel computes, per node, whether the frame
/// is audible (>= carrier-sense threshold). At transmission end it decides
/// reception per candidate receiver: in receive range, not transmitting
/// itself, and not collided (an overlapping audible transmission from a
/// different sender whose power exceeds signal/captureRatio). This is the
/// standard simplified 802.11 PHY used by packet-level simulators; it keeps
/// exactly the mechanisms the paper's results rest on — shared-medium
/// contention, hidden terminals, collision loss.
///
/// Hot-path structure (see README "Hot path anatomy"): delivery decisions
/// are batched per transmission — candidate ids are gathered once, their
/// positions pulled from the world's epoch position cache in one call,
/// distance² and rx-power computed over flat arrays, and the interference
/// history consulted through a per-transmission overlap set instead of a
/// full scan per receiver. The history itself is a time-sorted ring buffer
/// (sorted by start; pruned incrementally from the front) whose entries
/// carry a running prefix-max of their end times, so "which transmissions
/// can still matter at time t" is a backward walk that stops exactly where
/// `prefix-max end <= t`. All of this is bit-identical to the per-receiver
/// scan it replaced — pinned by the KernelRegression golden.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/tiled_grid.hpp"
#include "mac/frame.hpp"
#include "phy/propagation.hpp"
#include "sim/ring_deque.hpp"
#include "sim/simulator.hpp"

namespace glr::mac {

class Mac;

/// Channel-wide counters.
struct ChannelStats {
  std::uint64_t framesSent = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t collisions = 0;        // receptions lost to interference
  std::uint64_t rxWhileTx = 0;         // receptions lost: receiver was busy
  std::uint64_t faultDrops = 0;        // receptions vetoed by fault injection
  double airTimeSeconds = 0.0;
};

class Channel {
 public:
  using PositionFn = std::function<geom::Point2(int nodeId)>;
  /// Batch position gather: out[k] = position of ids[k], all at the current
  /// sim time. Installed by net::World so a candidate sweep costs one
  /// dispatch into the epoch position cache instead of one PositionFn call
  /// per receiver.
  using PositionBatchFn =
      std::function<void(const int* ids, std::size_t n, geom::Point2* out)>;

  Channel(sim::Simulator& sim, const phy::PropagationModel& model,
          phy::RadioThresholds thresholds, double txPowerW,
          PositionFn positionOf);

  /// Registers a MAC endpoint; its id must be dense from 0.
  void attach(Mac* mac);

  /// Optional batch position source (see PositionBatchFn). When unset, the
  /// per-node PositionFn is used for gathers too.
  void setPositionBatchFn(PositionBatchFn fn) { positionBatch_ = std::move(fn); }

  /// Per-receiver delivery veto, for fault injection (net/faults.hpp): a
  /// frame that passed range/busy/collision checks is handed to the filter
  /// last; returning false drops it (counted in ChannelStats::faultDrops).
  /// The frame stays on air for carrier-sense and interference either way.
  /// Unset (the default) costs nothing and keeps every golden bit-identical.
  using DeliveryFilter = std::function<bool(const Frame& frame, int receiver)>;
  void setDeliveryFilter(DeliveryFilter filter) {
    deliveryFilter_ = std::move(filter);
  }

  /// How the receiver index keeps node positions fresh.
  ///
  /// kSnapshot re-records every node each `rebuildInterval` (lazily, on the
  /// first query past the deadline) and pads queries by the worst-case
  /// drift `maxSpeed * rebuildInterval` — the pinned-golden default, with
  /// the exact position-sampling sequence of the original whole-grid
  /// snapshot (only the re-sort and its allocations are gone: stale records
  /// are relinked in place).
  ///
  /// kTiled re-records positions tile by tile: a janitor paced to complete
  /// one full sweep per `rebuildInterval` plus on-demand refreshes of the
  /// tiles a query actually scans. Each node carries its own sample time,
  /// so candidate admission pads by that node's individual staleness and
  /// the scan window by the staleness floor the janitor guarantees. Work
  /// per query is O(scanned region), and only nodes in refreshed tiles have
  /// their mobility evaluated — the position cache is driven by region
  /// activity instead of touching all N nodes per epoch.
  enum class IndexMode { kSnapshot, kTiled };

  /// Enables the spatial receiver index: candidate receivers for a frame
  /// are looked up in a uniform tiled grid of recorded node positions
  /// instead of scanning every attached MAC. Recorded positions lag the
  /// true ones by at most `rebuildInterval`, and queries are padded by the
  /// corresponding worst-case drift, so delivery decisions are exactly the
  /// ones the full scan makes (the pad keeps every possibly-in-range node
  /// in the candidate set; per-node threshold checks are unchanged).
  /// Caveat: this assumes positionOf is a pure function of sim time; if it
  /// integrates state per call (e.g. mobility::RandomWalk), the index's
  /// different query pattern can shift positions by FP rounding.
  ///
  /// `maxRange`: farthest distance at which reception is possible (use
  /// RadioThresholds::rxRange). `maxSpeed`: upper bound on any node's speed
  /// in m/s (0 for static topologies). `rebuildInterval`: recorded-position
  /// lifetime in sim-seconds; smaller = fresher records but more refresh
  /// work.
  void enableReceiverIndex(double maxRange, double maxSpeed,
                           double rebuildInterval = 0.5,
                           IndexMode mode = IndexMode::kSnapshot);

  /// Gives `nodeId` a heterogeneous transmit range: its transmit power is
  /// scaled so reception succeeds out to `range` metres (propagation is
  /// linear in transmit power, so the scale is exact; carrier-sense
  /// distance shifts consistently with the propagation law). Nodes without
  /// an override keep the shared radio. The receiver index automatically
  /// widens its candidate queries to the largest per-node range.
  void setNodeTxRange(int nodeId, double range);

  /// Begins an on-air transmission of `frame` lasting `duration` seconds.
  void startTransmission(int sender, Frame frame, double duration);

  /// True if `nodeId` senses the medium busy right now (own transmission or
  /// any active transmission heard above the carrier-sense threshold).
  [[nodiscard]] bool mediumBusy(int nodeId) const;

  /// Earliest time by which all currently heard transmissions end; equals
  /// now() when the medium is already idle. Used by MACs to schedule
  /// deferred attempts without callback plumbing.
  [[nodiscard]] sim::SimTime nextIdleHint(int nodeId) const;

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const phy::RadioThresholds& thresholds() const {
    return thresholds_;
  }

  /// Checkpoint support: the transmission history ring (in-flight and
  /// recently ended frames), tx-id counters and channel stats. The receiver
  /// index is a candidate-superset cache and is dropped on restore — the
  /// next query rebuilds it fresh at the restored clock, which cannot
  /// change delivery decisions (candidates are a padded superset; the exact
  /// per-node checks and their ascending-id visit order are unchanged).
  template <class Ar>
  void visit(Ar& ar);

  /// Re-creates a pending transmission-end event under its original key
  /// (see checkpoint/event_kinds.hpp kChannelTxEnd, u0 = txId).
  void restoreTxEndEvent(const sim::EventKey& key, std::uint64_t txId);

 private:
  struct ActiveTx {
    int sender = -1;
    Frame frame;
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    /// max(end) over this entry and every earlier one still in the ring.
    /// Monotone in ring position, so a backward relevance walk ("end >
    /// t?") stops exactly at the first entry whose prefix-max rules the
    /// whole earlier ring out. Front pops only loosen the bound (it stays
    /// an upper bound), never break it.
    sim::SimTime maxEndUpTo = 0;
    geom::Point2 senderPos;
  };

  void finishTransmission(std::uint64_t txId);
  [[nodiscard]] double powerAt(const ActiveTx& tx, geom::Point2 rxPos) const;
  /// Transmit power of `nodeId` (per-node override or the shared default).
  [[nodiscard]] double txPowerFor(int nodeId) const;
  /// Carrier-sense reach of `nodeId`'s transmitter: beyond this distance its
  /// signal is provably below csThresholdW (+infinity when the propagation
  /// model offers no bound — then nothing is filtered). Lets interference
  /// scans skip far-away entries on a distance² compare instead of paying
  /// the propagation virtual; bit-identical because a skipped entry fails
  /// the threshold check it is skipping.
  [[nodiscard]] double csRangeFor(int nodeId) const;
  /// Candidate receiver ids near `center` (ascending). Refreshes stale
  /// recorded positions per the index mode. Only called when the receiver
  /// index is enabled.
  [[nodiscard]] const std::vector<int>& receiverCandidates(
      geom::Point2 center);
  /// Builds the tiled grid over all attached MACs (bounds from the current
  /// positions; capacity = attached id space) and records everyone at now.
  void buildIndex(sim::SimTime now);
  /// kSnapshot: re-records every attached MAC at now (the exact sampling
  /// sequence of the legacy whole-grid rebuild).
  void refreshAllRecords(sim::SimTime now);
  /// kTiled: re-records one tile's members at now via the batch gather.
  void refreshTile(int tile, sim::SimTime now);
  /// kTiled: advances the round-robin tile sweep that bounds every record's
  /// staleness; completing a sweep raises the global staleness floor.
  void janitorStep(sim::SimTime now);
  void gatherPositions(const int* ids, std::size_t n, geom::Point2* out);

  sim::Simulator& sim_;
  const phy::PropagationModel& model_;
  phy::RadioThresholds thresholds_;
  double txPowerW_;
  PositionFn positionOf_;
  PositionBatchFn positionBatch_;
  DeliveryFilter deliveryFilter_;
  std::vector<Mac*> macs_;

  // Active + recently ended transmissions, start-sorted, pruned lazily from
  // the front (ring indices shift by historyBaseId_).
  sim::RingDeque<ActiveTx> history_;
  std::uint64_t nextTxId_ = 0;
  std::uint64_t historyBaseId_ = 0;
  ChannelStats stats_;

  // Per-sender transmit power overrides (heterogeneous ranges); 0 = use the
  // shared txPowerW_. maxNodeRange_ tracks the largest per-node range so
  // receiver-index queries stay conservative.
  std::vector<double> txPowerOf_;
  double maxNodeRange_ = 0.0;

  // Carrier-sense reach cache (see csRangeFor): the shared radio's bound is
  // solved once in the ctor; per-node overrides are maintained alongside
  // txPowerOf_ (0 = no override).
  double csMaxRangeShared_ = 0.0;
  std::vector<double> csRangeOf_;

  // Receiver index state (see enableReceiverIndex).
  bool indexEnabled_ = false;
  IndexMode indexMode_ = IndexMode::kSnapshot;
  double indexMaxRange_ = 0.0;
  double indexMaxSpeed_ = 0.0;
  double indexSlack_ = 0.0;  // maxSpeed * rebuildInterval
  double indexRebuildInterval_ = 0.5;
  /// Cached max(indexMaxRange_, maxNodeRange_ + 1e-6): the radius every
  /// candidate query uses. Updated in enableReceiverIndex/setNodeTxRange
  /// instead of being recomputed per frame.
  double effectiveQueryRange_ = 0.0;
  sim::SimTime indexBuiltAt_ = -1.0;
  std::unique_ptr<geom::TiledSpatialGrid> indexGrid_;
  std::vector<int> candidateScratch_;

  // kTiled refresh state. The janitor cursor walks tiles round-robin,
  // paced so one full sweep completes per rebuild interval; when a sweep
  // that started at `janitorCycleStartAt_` wraps, every live record has
  // been re-sampled since that time, so `indexFloor_` (the staleness floor
  // all scan windows pad by) rises to it. Per-tile stamps let queries skip
  // refreshing regions that are already fresh.
  std::vector<double> tileStamp_;   // per tile: last refresh time
  int janitorCursor_ = 0;
  double janitorCredit_ = 0.0;      // fractional tiles owed to the sweep
  sim::SimTime janitorLastAt_ = 0.0;
  sim::SimTime janitorCycleStartAt_ = 0.0;
  sim::SimTime indexFloor_ = 0.0;   // no record is staler than this time
  std::vector<int> refreshIds_;     // tile-refresh scratch
  std::vector<geom::Point2> refreshPos_;

  // Per-transmission delivery scratch (flat SoA arrays, reused).
  std::vector<int> candIds_;
  std::vector<geom::Point2> candPos_;
  std::vector<double> candDist2_;
  std::vector<double> candSignal_;
  std::vector<std::size_t> overlapIdx_;   // ring indices of interferers
  std::vector<double> overlapPower_;      // their transmit powers
};

}  // namespace glr::mac
