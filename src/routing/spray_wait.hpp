#pragma once
/// \file spray_wait.hpp
/// Binary Spray-and-Wait baseline (Spyropoulos et al.) — an extension
/// comparator representing the "improved epidemic" family the paper cites
/// ([4,5,19,20]): a fixed copy budget L is halved at each handover; a node
/// holding a single copy waits to meet the destination (direct delivery).

#include <memory>
#include <unordered_map>

#include "routing/dtn_agent.hpp"
#include "routing/epidemic.hpp"

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

class SprayWaitAgent final : public AgentBase {
 public:
  /// `params` is one immutable block the whole population shares.
  SprayWaitAgent(net::World& world, int self,
                 std::shared_ptr<const SprayWaitParams> params,
                 dtn::MetricsCollector* metrics, sim::Rng rng);
  /// Convenience for a lone agent: wraps `params` into a block of its own.
  SprayWaitAgent(net::World& world, int self, SprayWaitParams params,
                 dtn::MetricsCollector* metrics, sim::Rng rng);

  void start() override;
  void onPacket(const net::Packet& packet, int fromMac) override;
  void originate(int dstNode) override;

  /// Checkpoint support: AgentBase's state, then the per-id copy budgets.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  /// Fires the expiry sweep (kSprayExpiry, scheduled only when a TTL is
  /// configured) and passes every other kind to AgentBase.
  void onEvent(const sim::EventDesc& desc) override;

 private:
  /// The protocol's own checkpointed state, listed once for both archives.
  template <class Ar>
  void visitState(Ar& ar);

  /// Offers this node's summary vector to `id` (a fresh contact, or each
  /// neighbor after an origination).
  void onContact(int id) override;
  void expiryTick();

  std::shared_ptr<const SprayWaitParams> params_;
  std::unordered_map<dtn::MessageId, int> budget_;  // copies left here
};

}  // namespace glr::routing
