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

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "mac/mac.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spanner/ldtg.hpp"

namespace glr::net {

/// One neighbor a hello reports: its id, where the sender last saw it and
/// when the sender last heard it.
struct HelloEntry {
  int id = -1;
  geom::Point2 pos;
  sim::SimTime heardAt = 0;

  template <class Ar>
  void visit(Ar& ar);  // checkpoint support
};

/// A hello's neighbor list: one immutable, reference-counted block (a
/// small header and the entries, in one allocation) that its sender writes
/// once and then shares with the packet and with every receiver's record
/// of it, so a beacon heard by k neighbors costs one list, not k + 1
/// copies. Copying a handle bumps a plain counter; the last release frees
/// the block. Like Payload, a list is created, shared and released on one
/// scenario thread.
class NeighborList {
 public:
  NeighborList() noexcept = default;
  NeighborList(const NeighborList& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  NeighborList(NeighborList&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  NeighborList& operator=(NeighborList other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~NeighborList() { reset(); }

  /// A new block with room for `capacity` entries and none in it, held by
  /// this handle alone.
  [[nodiscard]] static NeighborList withCapacity(std::size_t capacity) {
    void* raw =
        ::operator new(sizeof(Block) + capacity * sizeof(HelloEntry));
    NeighborList list;
    list.block_ = ::new (raw)
        Block{.capacity = static_cast<std::uint32_t>(capacity)};
    return list;
  }

  void reset() noexcept {
    if (block_ != nullptr && --block_->refs == 0) ::operator delete(block_);
    block_ = nullptr;
  }

  /// True when this handle is the block's only holder, so its writer may
  /// refill it without any reader seeing the change.
  [[nodiscard]] bool unique() const {
    return block_ != nullptr && block_->refs == 1;
  }
  [[nodiscard]] std::size_t capacity() const {
    return block_ != nullptr ? block_->capacity : 0;
  }

  /// Writer side, while this handle is the only holder: empties the list,
  /// then appends entries up to its capacity.
  void clear() {
    assert(unique() && "NeighborList::clear: block is shared");
    block_->size = 0;
  }
  void push_back(const HelloEntry& entry) {
    assert(unique() && "NeighborList::push_back: block is shared");
    assert(block_->size < block_->capacity && "NeighborList: block is full");
    std::construct_at(block_->entries() + block_->size++, entry);
  }

  [[nodiscard]] const HelloEntry* begin() const {
    return block_ != nullptr ? block_->entries() : nullptr;
  }
  [[nodiscard]] const HelloEntry* end() const { return begin() + size(); }
  [[nodiscard]] std::size_t size() const {
    return block_ != nullptr ? block_->size : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Checkpoint support: the entry count, then each entry, the bytes a
  /// plain vector of entries writes. A restored list is a block of its own
  /// (or none, when empty).
  template <class Ar>
  void visit(Ar& ar);

 private:
  /// The header; `capacity` entries follow it in the same allocation.
  struct alignas(HelloEntry) Block {
    std::uint32_t refs = 1;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;

    [[nodiscard]] HelloEntry* entries() {
      return reinterpret_cast<HelloEntry*>(this + 1);
    }
    [[nodiscard]] const HelloEntry* entries() const {
      return reinterpret_cast<const HelloEntry*>(this + 1);
    }
  };
  static_assert(std::is_trivially_copyable_v<HelloEntry> &&
                std::is_trivially_destructible_v<HelloEntry>);

  Block* block_ = nullptr;
};

/// In-simulator hello beacon payload.
struct HelloPayload {
  int id = -1;
  geom::Point2 pos;
  sim::SimTime sentAt = 0;
  NeighborList neighbors;  // sender's fresh 1-hop table (empty if not sent)

  /// Payload's recycle hook: a parked arena block must not keep a list
  /// alive, so each list goes with the last packet and record holding it.
  void onRecycle() { neighbors.reset(); }
};

/// Packet kind tag used by the service.
inline constexpr const char* kHelloKind = "hello";

class NeighborService : public sim::EventSink {
 public:
  struct Params {
    double helloInterval = 0.75;   // seconds between beacons
    double expiry = 2.0;           // neighbor freshness horizon (seconds)
    std::size_t baseBytes = 20;    // id + position + timestamp
    std::size_t perNeighborBytes = 12;
    bool includeNeighborList = true;  // piggyback 1-hop table (2-hop info)
    /// Steady-state memory bound for long/large runs: records that have
    /// been stale for more than `evictAfterFactor * expiry` seconds are
    /// erased during the beacon sweep. 0 (default) keeps every record for
    /// the life of the node — the historical behavior the goldens were
    /// recorded under. Eviction never changes which neighbors are *fresh*,
    /// and a re-heard id goes back to its place in id order.
    double evictAfterFactor = 0.0;
  };

  /// The node a service runs on: where it is, and what it hears. The
  /// service keeps one pointer to it, and the owner must outlive it (an
  /// agent owns its service).
  class Owner {
   public:
    /// The node's current position, stamped on each hello it sends.
    virtual geom::Point2 helloPosition() = 0;
    /// A hello arrived from a node that was not a fresh neighbor (first
    /// contact or re-contact after expiry).
    virtual void onContact(int /*id*/) {}
    /// A position a hello carried, with its timestamp: the sender's own,
    /// then each neighbor it reports except this node.
    virtual void onLocationSample(int /*id*/, geom::Point2 /*pos*/,
                                  sim::SimTime /*at*/) {}

   protected:
    Owner() = default;
    ~Owner() = default;
  };

  /// `params` is one immutable block the whole population shares.
  NeighborService(sim::Simulator& sim, mac::Mac& mac, int self, Owner& owner,
                  std::shared_ptr<const Params> params, sim::Rng rng);
  /// Convenience for a lone service: wraps `params` into a block of its own.
  NeighborService(sim::Simulator& sim, mac::Mac& mac, int self, Owner& owner,
                  const Params& params, sim::Rng rng);

  /// Begins periodic beaconing (first beacon after a random sub-interval
  /// offset so nodes don't beacon in lockstep).
  void start();

  /// Feed packets from Agent::onPacket; returns true if it was a hello and
  /// has been consumed.
  bool handlePacket(const Packet& packet, int fromMac);

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
  /// The neighbor list of `id`'s latest hello as this node holds it: the
  /// sender's block itself, shared. Empty if no hello from `id` was heard,
  /// or once the stale record has been swept.
  [[nodiscard]] const NeighborList& reportedBy(int id) const;

  /// Replaces `out` with the node's <= 2-hop knowledge for LDTG
  /// construction: fresh 1-hop neighbors (as oneHop) in ascending id order,
  /// then the nodes they reported (as two-hop), deduplicated keeping the
  /// freshest observation. Runs once per route check; with a reused `out`
  /// it is allocation-free once the thread's id table covers the ids seen.
  void knowledge(std::vector<spanner::KnownNode>& out) const;

  [[nodiscard]] std::uint64_t hellosSent() const { return hellosSent_; }
  [[nodiscard]] std::uint64_t hellosReceived() const { return hellosReceived_; }
  /// Beacons the MAC refused (queue full / radio down). A dropped hello
  /// only delays neighbor discovery by one interval, but under saturation
  /// these must be visible, not silent.
  [[nodiscard]] std::uint64_t helloSendFailures() const {
    return helloSendFailures_;
  }

  /// Checkpoint support. The table is written as a plain sequence in id
  /// order; a restore refuses ids that are not strictly ascending or lie
  /// outside [0, numNodes), so every neighbor id indexes a node.
  template <class Ar>
  void visit(Ar& ar, std::size_t numNodes);

  /// Fires a hello beacon event (kHello, see checkpoint/event_kinds.hpp).
  void onEvent(const sim::EventDesc& /*desc*/) override { sendHello(); }

 private:
  /// What this node knows of one neighbor: where it was and when it was
  /// last heard, and the neighbor list of its latest hello. That list is
  /// the sender's block itself, shared, not a copy; a stale record drops it
  /// at this node's next beacon sweep.
  struct NeighborRecord {
    geom::Point2 pos;
    sim::SimTime heard = -1e18;
    NeighborList reported;
  };
  struct Entry {
    int id = -1;
    NeighborRecord rec;
  };

  void sendHello();
  /// Index of `id`'s entry, or of the entry it would go before.
  [[nodiscard]] std::size_t lowerBound(int id) const;
  /// `id`'s record, or null when the table has none.
  [[nodiscard]] const NeighborRecord* find(int id) const;
  /// A block of the hello list pool that no receiver holds, with room for
  /// `entries`, moved to the front slot.
  NeighborList& freeHelloList(std::size_t entries);
  [[nodiscard]] bool fresh(const NeighborRecord& r) const;

  sim::Simulator& sim_;
  mac::Mac& mac_;
  int self_;
  Owner* owner_;
  std::shared_ptr<const Params> params_;
  sim::Rng rng_;

  /// Every neighbor heard and not evicted, in ascending id order: the
  /// order of hello lists, knowledge() and currentNeighbors().
  std::vector<Entry> table_;
  /// This node's two hello list blocks, the newest in front. A hello's
  /// receivers hold its block until the next hello from here replaces it,
  /// so a beacon can nearly always refill the older block in place.
  std::array<NeighborList, 2> helloLists_;
  std::uint64_t hellosSent_ = 0;
  std::uint64_t hellosReceived_ = 0;
  std::uint64_t helloSendFailures_ = 0;
};

}  // namespace glr::net
