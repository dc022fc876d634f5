#pragma once
/// \file direct.hpp
/// Direct-delivery baseline: the source holds every message until it meets
/// the destination itself (single copy, zero relay overhead). The classic
/// lower bound on overhead / upper bound on delay among DTN strategies;
/// used in extension benches.

#include <unordered_set>

#include "dtn/buffer.hpp"
#include "dtn/message.hpp"
#include "dtn/metrics.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"
#include "sim/rng.hpp"

namespace glr::routing {

struct DirectParams {
  std::size_t storageLimit = dtn::kUnlimitedStorage;
  /// Buffer index pre-size hint (see MessageBuffer); 0 = no hint.
  std::size_t expectedBufferedCopies = 0;
  std::size_t payloadBytes = 1000;
  std::size_t dataHeaderBytes = 28;
  double checkInterval = 1.0;
  net::NeighborService::Params hello;
};

inline constexpr const char* kDirectDataKind = "dd-data";

class DirectDeliveryAgent final : public DtnAgent {
 public:
  DirectDeliveryAgent(net::World& world, int self, DirectParams params,
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
    out.sendRejects += sendRejects_ + neighbors_.helloSendFailures();
    out.bufferEvictions += buffer_.dropCount();
  }

  /// Checkpoint support: hello service, buffer, delivered set, counters and
  /// RNG. Pending events (hello beacon, delivery check) are rebuilt via
  /// restoreEvent.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  void restoreEvent(const sim::EventKey& key,
                    const sim::EventDesc& desc) override;

 private:
  /// The checkpointed state, listed once for both archives.
  template <class Ar>
  void visitState(Ar& ar);

  void check();
  [[nodiscard]] geom::Point2 myPos() { return world_.positionOf(self_); }

  net::World& world_;
  int self_;
  DirectParams params_;
  dtn::MetricsCollector* metrics_;
  sim::Rng rng_;
  net::NeighborService neighbors_;
  dtn::MessageBuffer buffer_;
  std::unordered_set<dtn::MessageId> deliveredHere_;
  std::uint64_t dataSent_ = 0;
  std::uint64_t sendRejects_ = 0;
  int nextSeq_ = 0;
};

}  // namespace glr::routing
