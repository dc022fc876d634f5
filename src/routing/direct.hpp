#pragma once
/// \file direct.hpp
/// Direct-delivery baseline: the source holds every message until it meets
/// the destination itself (single copy, zero relay overhead). The classic
/// lower bound on overhead / upper bound on delay among DTN strategies;
/// used in extension benches.

#include <memory>

#include "routing/dtn_agent.hpp"

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

class DirectDeliveryAgent final : public AgentBase {
 public:
  /// Throws std::invalid_argument unless checkInterval > 0. `params` is
  /// one immutable block the whole population shares.
  DirectDeliveryAgent(net::World& world, int self,
                      std::shared_ptr<const DirectParams> params,
                      dtn::MetricsCollector* metrics, sim::Rng rng);
  /// Convenience for a lone agent: wraps `params` into a block of its own.
  DirectDeliveryAgent(net::World& world, int self, DirectParams params,
                      dtn::MetricsCollector* metrics, sim::Rng rng);

  void start() override;
  void onPacket(const net::Packet& packet, int fromMac) override;
  void originate(int dstNode) override;

  /// Fires the delivery check (kDirectCheck) and passes every other kind to
  /// AgentBase, whose checkpoint state is all this protocol has.
  void onEvent(const sim::EventDesc& desc) override;

 private:
  void check();

  std::shared_ptr<const DirectParams> params_;
};

}  // namespace glr::routing
