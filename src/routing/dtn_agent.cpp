#include "routing/dtn_agent.hpp"

#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"
#include "dtn/metrics.hpp"

namespace glr::routing {

void DtnAgent::visit(ckpt::Encoder& /*ar*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpointing"};
}

void DtnAgent::visit(ckpt::Decoder& /*ar*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpoint restore"};
}

void DtnAgent::onEvent(const sim::EventDesc& desc) {
  if (desc.kind == ckpt::kTrafficPaperArrival) {
    originate(desc.i1);
  } else {
    net::Agent::onEvent(desc);
  }
}

AgentBase::AgentBase(net::World& world, int self,
                     dtn::MetricsCollector* metrics, sim::Rng rng,
                     std::shared_ptr<const net::NeighborService::Params> hello,
                     std::size_t storageLimit,
                     std::size_t expectedBufferedCopies)
    : world_(world),
      self_(self),
      metrics_(metrics),
      rng_(rng),
      neighbors_(world.sim(), world.macOf(self), self, *this, std::move(hello),
                 rng.fork(1)),
      buffer_(storageLimit, expectedBufferedCopies) {
  buffer_.setTrace(world_.trace(), self_);
}

void AgentBase::harvestCounters(ProtocolCounters& out) const {
  const ProtocolCounters& counted = counters();
#define GLR_ADD_COUNTER(field, resultField) out.field += counted.field;
  GLR_PROTOCOL_COUNTERS(GLR_ADD_COUNTER)
#undef GLR_ADD_COUNTER
  out.sendRejects += neighbors_.helloSendFailures();
  out.bufferEvictions += buffer_.dropCount();
  out.expiredDrops += buffer_.expiredCount();
}

dtn::Message AgentBase::newMessage(int dstNode, std::size_t payloadBytes,
                                   double ttl) {
  dtn::Message m;
  m.id = {self_, nextSeq_++};
  m.srcNode = self_;
  m.dstNode = dstNode;
  m.created = world_.sim().now();
  m.payloadBytes = payloadBytes;
  if (ttl > 0.0) m.expiresAt = m.created + ttl;
  if (metrics_ != nullptr) metrics_->onCreated(m);
  return m;
}

void AgentBase::deliverHere(const dtn::Message& m, int hops) {
  if (deliveredHere_ == nullptr) {
    deliveredHere_ = std::make_unique<std::unordered_set<dtn::MessageId>>();
  }
  if (deliveredHere_->insert(m.id).second && metrics_ != nullptr) {
    metrics_->onDelivered(m, world_.sim().now(), hops);
  }
}

template <class Ar>
void AgentBase::visitState(Ar& ar) {
  ar.rng(rng_);
  neighbors_.visit(ar, world_.numNodes());
  buffer_.visit(ar);
  ckpt::visitBuiltOnUse(ar, deliveredHere_, [&](auto& delivered) {
    ar.unorderedSet(delivered,
                    [&](dtn::MessageId& id) { ckpt::visit(ar, id); });
  });
  // The buffer counts its own evictions and expiries (visited above) and
  // only the harvest adds them, so those two slots of counters_ stay zero.
  constexpr auto bufferOwned = [](std::uint64_t ProtocolCounters::*c) {
    return c == &ProtocolCounters::bufferEvictions ||
           c == &ProtocolCounters::expiredDrops;
  };
  // A block never built is written as the zero block it stands for. A built
  // one has counted something, so a zero block restores as none.
  ProtocolCounters counted = counters();
#define GLR_VISIT_COUNTER(field, resultField) \
  if (!bufferOwned(&ProtocolCounters::field)) ar.u64(counted.field);
  GLR_PROTOCOL_COUNTERS(GLR_VISIT_COUNTER)
#undef GLR_VISIT_COUNTER
  if constexpr (Ar::kLoading) {
    counters_ = counted == ProtocolCounters{}
                    ? nullptr
                    : std::make_unique<ProtocolCounters>(counted);
  }
  ar.i32(nextSeq_);
}

void AgentBase::visit(ckpt::Encoder& ar) { visitState(ar); }
void AgentBase::visit(ckpt::Decoder& ar) { visitState(ar); }

void AgentBase::onEvent(const sim::EventDesc& desc) {
  if (desc.kind == ckpt::kHello) {
    neighbors_.onEvent(desc);
  } else {
    DtnAgent::onEvent(desc);
  }
}

}  // namespace glr::routing
