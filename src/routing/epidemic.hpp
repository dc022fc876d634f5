#pragma once
/// \file epidemic.hpp
/// Epidemic routing baseline (Vahdat & Becker), the paper's comparator.
///
/// On contact, nodes exchange *summary vectors* (the message ids they hold);
/// each side then requests and receives the messages it lacks. Messages are
/// never cleared after delivery ("one apparent drawback ... the messages are
/// never cleared"); under a storage limit the oldest messages are dropped
/// FIFO when new ones arrive (paper Sec. 3.6). Anti-entropy re-runs with a
/// current neighbor only when this node's buffer has grown since the last
/// exchange with it, matching "nodes exchange messages only when they come
/// within communication range of each other".

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dtn/buffer.hpp"
#include "dtn/message.hpp"
#include "dtn/metrics.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"
#include "sim/rng.hpp"

namespace glr::routing {

struct EpidemicParams {
  std::size_t storageLimit = dtn::kUnlimitedStorage;
  /// Buffer index pre-size hint (see MessageBuffer); 0 = no hint.
  std::size_t expectedBufferedCopies = 0;
  std::size_t payloadBytes = 1000;
  std::size_t dataHeaderBytes = 28;
  std::size_t svHeaderBytes = 20;
  std::size_t svEntryBytes = 8;     // message id on the wire
  double exchangeCheckInterval = 1.0;  // dirty-neighbor re-offer cadence
  /// Minimum spacing between anti-entropy offers to the same neighbor
  /// (Vahdat's per-pair rate limit); offers during sustained contact are
  /// deltas (ids added since the last offer), full only on fresh contact.
  double svMinInterval = 5.0;
  /// After requesting a message id from one peer, don't re-request it from
  /// another for this long: in dense networks many neighbors offer the same
  /// id near-simultaneously, and naive re-requests multiply the data flood
  /// by the node degree.
  double requestWindow = 3.0;
  /// Bundle lifetime in seconds; 0 (default) = immortal messages, the
  /// historical behavior. When set, expired copies are dropped as counted
  /// expiries on the exchange tick (never silently).
  double messageTtl = 0.0;
  net::NeighborService::Params hello;  // neighbor-list piggyback disabled
};

struct EpidemicCounters {
  std::uint64_t summariesSent = 0;
  std::uint64_t requestsSent = 0;
  std::uint64_t dataSent = 0;
  std::uint64_t dataReceived = 0;
  std::uint64_t duplicatesDropped = 0;
  std::uint64_t deliveredHere = 0;
  std::uint64_t sendRejects = 0;  // SV/request/data sends the MAC refused
};

/// Summary vector / request payloads.
struct SummaryVector {
  std::vector<dtn::MessageId> ids;
};
struct RequestVector {
  std::vector<dtn::MessageId> ids;
};

inline constexpr const char* kEpSvKind = "ep-sv";
inline constexpr const char* kEpReqKind = "ep-req";
inline constexpr const char* kEpDataKind = "ep-data";

class EpidemicAgent final : public DtnAgent {
 public:
  EpidemicAgent(net::World& world, int self, EpidemicParams params,
                dtn::MetricsCollector* metrics, sim::Rng rng);

  void start() override;
  void onPacket(const net::Packet& packet, int fromMac) override;
  void originate(int dstNode) override;
  void onRadioState(bool up) override {
    if (!up) neighbors_.reset();
  }

  [[nodiscard]] std::size_t storageUsed() const override {
    return buffer_.size();
  }
  [[nodiscard]] std::size_t storagePeak() const override {
    return buffer_.peakSize();
  }

  void harvestCounters(ProtocolCounters& out) const override {
    out.dataSent += counters_.dataSent;
    out.dataReceived += counters_.dataReceived;
    out.duplicatesDropped += counters_.duplicatesDropped;
    out.sendRejects += counters_.sendRejects + neighbors_.helloSendFailures();
    out.bufferEvictions += buffer_.dropCount();
    out.expiredDrops += buffer_.expiredCount();
  }

  [[nodiscard]] const EpidemicCounters& counters() const { return counters_; }
  [[nodiscard]] const dtn::MessageBuffer& buffer() const { return buffer_; }

  /// Checkpoint support: hello service, buffer, delivered set, delta-offer
  /// log/watermarks, request window, counters and RNG. Pending events
  /// (hello beacon, exchange tick) are rebuilt via restoreEvent.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  void restoreEvent(const sim::EventKey& key,
                    const sim::EventDesc& desc) override;

 private:
  /// The checkpointed state, listed once for both archives.
  template <class Ar>
  void visitState(Ar& ar);

  /// Offers message ids to `to`: those added after the per-neighbor
  /// watermark (0 == full buffer, used on fresh contacts).
  void sendSummary(int to, bool full);
  void exchangeTick();
  void addMessage(dtn::Message m);
  [[nodiscard]] geom::Point2 myPos() { return world_.positionOf(self_); }

  net::World& world_;
  int self_;
  EpidemicParams params_;
  dtn::MetricsCollector* metrics_;
  sim::Rng rng_;

  net::NeighborService neighbors_;
  dtn::MessageBuffer buffer_;
  std::unordered_set<dtn::MessageId> deliveredHere_;
  /// Arrival-ordered log of stored message ids, for delta offers.
  std::vector<std::pair<std::uint64_t, dtn::MessageId>> additions_;
  std::uint64_t addSeq_ = 0;
  /// Per-neighbor offer watermark (into addSeq_) and last-offer time.
  std::unordered_map<int, std::uint64_t> offeredUpTo_;
  std::unordered_map<int, sim::SimTime> lastOfferAt_;
  /// Outstanding requests: id -> time requested (pruned lazily).
  std::unordered_map<dtn::MessageId, sim::SimTime> requestedAt_;
  EpidemicCounters counters_;
  int nextSeq_ = 0;
};

}  // namespace glr::routing
