#pragma once
/// \file buffer.hpp
/// Message storage with the paper's two areas and custody semantics.
///
/// "Two storage areas are maintained ...: the Store is the place where
/// messages are waiting to be sent whereas messages that are just sent are
/// saved in the Cache" (Sec. 2.3.2). A copy moves Store -> Cache on
/// transmission, is deleted from the Cache on a custody acknowledgement, and
/// moves back to the Store when the cache residency times out (lost message
/// or lost ack). Under storage pressure "message in the Cache is dropped
/// first" (Sec. 3.6); within an area, FIFO.
///
/// The same class backs the epidemic baseline (store only, FIFO drop).
/// Occupancy peaks are tracked on every mutation for the storage tables.

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dtn/message.hpp"

namespace glr::trace {
class Recorder;  // trace/recorder.hpp
enum class EventType : std::uint8_t;
}

namespace glr::dtn {

inline constexpr std::size_t kUnlimitedStorage = SIZE_MAX;

class MessageBuffer {
 public:
  /// `expectedCopies` pre-sizes the key/branch hash indexes (0 = no hint).
  /// Scenario drivers derive it from the population/workload so steady-state
  /// inserts never rehash; it is purely a bucket-count hint — list order
  /// drives every observable iteration, so results are unaffected. The
  /// reserve is applied lazily on the first insert, so idle nodes that
  /// never buffer a message pay nothing for the hint.
  explicit MessageBuffer(std::size_t capacity = kUnlimitedStorage,
                         std::size_t expectedCopies = 0);

  /// Optional flight recorder: evictions (EventType kDrop) and TTL expiries
  /// (kExpiry) are traced with `selfNode` as the acting node. Null = off —
  /// the counted-drop paths then cost exactly one extra branch.
  void setTrace(trace::Recorder* trace, int selfNode) {
    trace_ = trace;
    selfNode_ = selfNode;
  }

  /// Adds a copy to the Store (FIFO tail). Returns false (and changes
  /// nothing) if the same copy is already present in Store or Cache.
  /// Under capacity pressure evicts Cache-first / FIFO until it fits;
  /// if the buffer is full and nothing is evictable the message is rejected.
  bool addToStore(Message m);

  /// Moves a stored copy to the Cache, recording next hop and send time.
  /// Returns false if the copy is not in the Store.
  bool moveToCache(const CopyKey& key, int nextHop, sim::SimTime now);

  /// Deletes a copy from the Cache (custody acknowledged). Returns the
  /// removed message if present.
  std::optional<Message> removeFromCache(const CopyKey& key);

  /// Moves a cached copy back to the Store tail (ack lost / timed out).
  /// Returns false if the copy is no longer cached.
  bool returnToStore(const CopyKey& key);

  /// Removes a copy wherever it is (e.g. destination reached by another
  /// branch). Returns true if something was removed.
  bool erase(const CopyKey& key);

  /// Removes every branch of message `id` from both areas; returns the
  /// number of copies removed.
  std::size_t eraseAllBranches(const MessageId& id);

  [[nodiscard]] bool inStore(const CopyKey& key) const;
  [[nodiscard]] bool inCache(const CopyKey& key) const;
  [[nodiscard]] bool contains(const CopyKey& key) const {
    return inStore(key) || inCache(key);
  }
  /// True if any copy of this message id (any branch) is held.
  [[nodiscard]] bool containsAnyBranch(const MessageId& id) const;

  /// Mutable access to a stored copy (header updates, face-mode state).
  /// The identity fields (`id`, `flag`) must not be changed through this
  /// pointer — the O(1) key index assumes they are immutable while stored.
  [[nodiscard]] Message* findInStore(const CopyKey& key);

  /// Applies `fn` to every stored message (e.g. clearing retry backoff when
  /// a new contact appears).
  void forEachInStore(const std::function<void(Message&)>& fn);

  /// Stable snapshot of Store keys, FIFO order (safe to mutate while
  /// iterating the snapshot).
  [[nodiscard]] std::vector<CopyKey> storeKeys() const;

  /// Cached copies sent before `before` (custody reschedule candidates).
  [[nodiscard]] std::vector<CopyKey> cachedSentBefore(sim::SimTime before) const;

  /// When the cached copy was sent, if it is currently cached. Custody
  /// timeout handlers compare this against their own send time so a stale
  /// timer cannot disturb a newer custody round of the same copy.
  [[nodiscard]] std::optional<sim::SimTime> cacheEntrySentAt(
      const CopyKey& key) const;

  /// The next hop a cached copy was sent to, if it is currently cached.
  /// Feeds GLR's suspicion scoring: a custody timeout reads the hop before
  /// reclaiming the copy.
  [[nodiscard]] std::optional<int> cacheEntryNextHop(const CopyKey& key) const;

  /// Drops every copy (both areas) whose `expiresAt <= now`, counting each
  /// into expiredCount() — TTL expiry is a counted drop, never a silent
  /// erasure. Returns how many copies expired. A no-op for immortal
  /// messages (the default far-future expiresAt), so callers may sweep
  /// unconditionally without perturbing TTL-less runs.
  std::size_t expireDue(sim::SimTime now);

  [[nodiscard]] std::uint64_t expiredCount() const { return expired_; }

  [[nodiscard]] std::size_t storeSize() const { return store_.size(); }
  [[nodiscard]] std::size_t cacheSize() const { return cache_.size(); }
  [[nodiscard]] std::size_t size() const {
    return store_.size() + cache_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t peakSize() const { return peak_; }
  [[nodiscard]] std::uint64_t dropCount() const { return drops_; }

  /// Checkpoint support. The FIFO lists are the source of truth (their order
  /// drives eviction and iteration determinism) and are serialized verbatim;
  /// the hash indexes are pure key-lookup caches and are rebuilt on restore.
  /// Restore verifies the snapshot's capacity against the live one and
  /// fails loudly on mismatch (a config-divergence tripwire).
  template <class Ar>
  void visit(Ar& ar);

 private:
  struct CacheEntry {
    Message message;
    int nextHop = -1;
    sim::SimTime sentAt = 0;
  };

  void notePeak();
  /// Applies the deferred `expectedCopies` index reserve (first insert).
  void applyReserveHint();
  /// Evicts one message per the paper's policy; false if nothing evictable.
  bool evictOne();
  /// Emits a kDrop/kExpiry trace record for `m` (caller checks trace_).
  void traceDrop(trace::EventType type, const Message& m);

  /// Index maintenance. The lists stay the source of truth (their FIFO order
  /// drives eviction and iteration determinism); the maps only make key
  /// lookups O(1). std::list iterators are stable, so indexed iterators
  /// survive unrelated insertions/erasures.
  void indexStoreInsert(std::list<Message>::iterator it);
  void indexStoreErase(std::list<Message>::iterator it);
  void indexCacheInsert(std::list<CacheEntry>::iterator it);
  void indexCacheErase(std::list<CacheEntry>::iterator it);

  std::size_t capacity_;
  std::list<Message> store_;       // FIFO: front = oldest
  std::list<CacheEntry> cache_;    // FIFO: front = oldest
  std::unordered_map<CopyKey, std::list<Message>::iterator> storeIndex_;
  std::unordered_map<CopyKey, std::list<CacheEntry>::iterator> cacheIndex_;
  /// Copies held per message id across both areas (any-branch queries).
  std::unordered_map<MessageId, std::uint32_t> branchCount_;
  std::size_t peak_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t expired_ = 0;
  trace::Recorder* trace_ = nullptr;  // owned by the experiment layer
  int selfNode_ = -1;
  /// Deferred index reserve size; consumed (zeroed) on the first insert.
  std::size_t reserveHint_ = 0;
};

}  // namespace glr::dtn
