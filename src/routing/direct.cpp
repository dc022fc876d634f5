#include "routing/direct.hpp"

#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "trace/recorder.hpp"

namespace glr::routing {

DirectDeliveryAgent::DirectDeliveryAgent(
    net::World& world, int self, std::shared_ptr<const DirectParams> params,
    dtn::MetricsCollector* metrics, sim::Rng rng)
    : AgentBase(world, self, metrics, rng, {params, &params->hello},
                params->storageLimit, params->expectedBufferedCopies),
      params_(std::move(params)) {
  if (!(params_->checkInterval > 0.0)) {
    throw std::invalid_argument{
        "DirectDeliveryAgent: checkInterval must be > 0"};
  }
}

DirectDeliveryAgent::DirectDeliveryAgent(net::World& world, int self,
                                         DirectParams params,
                                         dtn::MetricsCollector* metrics,
                                         sim::Rng rng)
    : DirectDeliveryAgent(
          world, self, std::make_shared<const DirectParams>(std::move(params)),
          metrics, rng) {}

void DirectDeliveryAgent::start() {
  neighbors_.start();
  world_.sim().schedule(rng_.uniform(0.0, params_->checkInterval), *this,
                        {.kind = ckpt::kDirectCheck, .i0 = self_});
}

void DirectDeliveryAgent::originate(int dstNode) {
  buffer_.addToStore(newMessage(dstNode, params_->payloadBytes, /*ttl=*/0.0));
}

void DirectDeliveryAgent::check() {
  for (const dtn::CopyKey& key : buffer_.storeKeys()) {
    dtn::Message* m = buffer_.findInStore(key);
    if (m == nullptr) continue;
    if (!neighbors_.isNeighbor(m->dstNode)) continue;
    net::Packet p;
    p.kind = kDirectDataKind;
    p.bytes = m->payloadBytes + params_->dataHeaderBytes;
    p.payload = net::Payload::of(*m);
    const int dst = m->dstNode;
    // Drop the copy only once the MAC accepted the frame: a refused send
    // (queue full / radio down) keeps it stored for the next check instead
    // of silently losing the sole copy.
    if (world_.macOf(self_).send(std::move(p), dst)) {
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSend, self_, dst, key.id.src,
                  key.id.seq);
      }
      buffer_.erase(key);
      ++tally().dataSent;
    } else {
      ++tally().sendRejects;
    }
  }
  world_.sim().schedule(params_->checkInterval, *this,
                        {.kind = ckpt::kDirectCheck, .i0 = self_});
}

void DirectDeliveryAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;
  if (packet.kind != kDirectDataKind) return;
  const auto* pm = packet.payload.get<dtn::Message>();
  if (pm == nullptr || pm->dstNode != self_) return;
  deliverHere(*pm, pm->hops + 1);
}

void DirectDeliveryAgent::onEvent(const sim::EventDesc& desc) {
  if (desc.kind == ckpt::kDirectCheck) {
    check();
  } else {
    AgentBase::onEvent(desc);
  }
}

}  // namespace glr::routing
