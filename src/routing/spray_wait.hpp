#pragma once
/// \file spray_wait.hpp
/// Binary Spray-and-Wait baseline (Spyropoulos et al.) — an extension
/// comparator representing the "improved epidemic" family the paper cites
/// ([4,5,19,20]): a fixed copy budget L is halved at each handover; a node
/// holding a single copy waits to meet the destination (direct delivery).

#include <unordered_map>
#include <unordered_set>

#include "dtn/buffer.hpp"
#include "dtn/message.hpp"
#include "dtn/metrics.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"
#include "routing/epidemic.hpp"
#include "sim/rng.hpp"

namespace glr::routing {

struct SprayWaitParams {
  int copyBudget = 8;  // L: initial number of logical copies
  std::size_t storageLimit = dtn::kUnlimitedStorage;
  /// Buffer index pre-size hint (see MessageBuffer); 0 = no hint.
  std::size_t expectedBufferedCopies = 0;
  std::size_t payloadBytes = 1000;
  std::size_t dataHeaderBytes = 30;  // data header + budget field
  std::size_t svHeaderBytes = 20;
  std::size_t svEntryBytes = 8;
  /// Bundle lifetime in seconds; 0 (default) = immortal messages. When set,
  /// a periodic sweep drops expired copies as counted expiries.
  double messageTtl = 0.0;
  double expiryCheckInterval = 1.0;  // sweep cadence when messageTtl > 0
  net::NeighborService::Params hello;
};

/// Data payload: message plus remaining budget handed to the receiver.
struct SprayData {
  dtn::Message message;
  int budget = 1;
};

inline constexpr const char* kSwSvKind = "sw-sv";
inline constexpr const char* kSwReqKind = "sw-req";
inline constexpr const char* kSwDataKind = "sw-data";

class SprayWaitAgent final : public DtnAgent {
 public:
  SprayWaitAgent(net::World& world, int self, SprayWaitParams params,
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
    out.dataSent += dataSent_;
    out.dataReceived += dataReceived_;
    out.sendRejects += sendRejects_ + neighbors_.helloSendFailures();
    out.bufferEvictions += buffer_.dropCount();
    out.expiredDrops += buffer_.expiredCount();
  }

  /// Checkpoint support: hello service, buffer, per-id copy budgets,
  /// delivered set, counters and RNG. Pending events (hello beacon, expiry
  /// sweep when a TTL is configured) are rebuilt via restoreEvent.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  void restoreEvent(const sim::EventKey& key,
                    const sim::EventDesc& desc) override;

 private:
  /// The checkpointed state, listed once for both archives.
  template <class Ar>
  void visitState(Ar& ar);

  void onContact(int id);
  void expiryTick();
  [[nodiscard]] geom::Point2 myPos() { return world_.positionOf(self_); }

  net::World& world_;
  int self_;
  SprayWaitParams params_;
  dtn::MetricsCollector* metrics_;
  sim::Rng rng_;
  net::NeighborService neighbors_;
  dtn::MessageBuffer buffer_;
  std::unordered_map<dtn::MessageId, int> budget_;  // copies left here
  std::unordered_set<dtn::MessageId> deliveredHere_;
  std::uint64_t dataSent_ = 0;
  std::uint64_t dataReceived_ = 0;
  std::uint64_t sendRejects_ = 0;  // SV/request/data sends the MAC refused
  int nextSeq_ = 0;
};

}  // namespace glr::routing
