#include "routing/direct.hpp"

#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"
#include "trace/recorder.hpp"

namespace glr::routing {

namespace {

sim::EventDesc checkDesc(int self) {
  sim::EventDesc d;
  d.kind = ckpt::kDirectCheck;
  d.i0 = self;
  return d;
}

}  // namespace

DirectDeliveryAgent::DirectDeliveryAgent(net::World& world, int self,
                                         DirectParams params,
                                         dtn::MetricsCollector* metrics,
                                         sim::Rng rng)
    : world_(world),
      self_(self),
      params_(params),
      metrics_(metrics),
      rng_(rng),
      neighbors_(world.sim(), world.macOf(self), self,
                 [this] { return myPos(); }, params.hello, rng.fork(1)),
      buffer_(params.storageLimit, params.expectedBufferedCopies) {
  buffer_.setTrace(world_.trace(), self_);
}

void DirectDeliveryAgent::start() {
  neighbors_.start();
  world_.sim().schedule(rng_.uniform(0.0, params_.checkInterval),
                        checkDesc(self_), [this] { check(); });
}

void DirectDeliveryAgent::originate(int dstNode) {
  dtn::Message m;
  m.id = {self_, nextSeq_++};
  m.srcNode = self_;
  m.dstNode = dstNode;
  m.created = world_.sim().now();
  m.payloadBytes = params_.payloadBytes;
  if (metrics_ != nullptr) metrics_->onCreated(m);
  buffer_.addToStore(std::move(m));
}

void DirectDeliveryAgent::check() {
  for (const dtn::CopyKey& key : buffer_.storeKeys()) {
    dtn::Message* m = buffer_.findInStore(key);
    if (m == nullptr) continue;
    if (!neighbors_.isNeighbor(m->dstNode)) continue;
    net::Packet p;
    p.kind = kDirectDataKind;
    p.bytes = m->payloadBytes + params_.dataHeaderBytes;
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
      ++dataSent_;
    } else {
      ++sendRejects_;
    }
  }
  world_.sim().schedule(params_.checkInterval, checkDesc(self_),
                        [this] { check(); });
}

void DirectDeliveryAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;
  if (packet.kind != kDirectDataKind) return;
  const auto* pm = packet.payload.get<dtn::Message>();
  if (pm == nullptr || pm->dstNode != self_) return;
  if (deliveredHere_.insert(pm->id).second && metrics_ != nullptr) {
    metrics_->onDelivered(*pm, world_.sim().now(), pm->hops + 1);
  }
}

template <class Ar>
void DirectDeliveryAgent::visitState(Ar& ar) {
  ar.rng(rng_);
  neighbors_.visit(ar);
  buffer_.visit(ar);
  ar.unorderedSet(deliveredHere_,
                  [&](dtn::MessageId& id) { ckpt::visit(ar, id); });
  ar.u64(dataSent_);
  ar.u64(sendRejects_);
  ar.i32(nextSeq_);
}

void DirectDeliveryAgent::visit(ckpt::Encoder& ar) { visitState(ar); }
void DirectDeliveryAgent::visit(ckpt::Decoder& ar) { visitState(ar); }

void DirectDeliveryAgent::restoreEvent(const sim::EventKey& key,
                                       const sim::EventDesc& desc) {
  switch (desc.kind) {
    case ckpt::kHello:
      neighbors_.restoreHelloEvent(key);
      return;
    case ckpt::kDirectCheck:
      world_.sim().scheduleKeyed(key, checkDesc(self_), [this] { check(); });
      return;
    default:
      throw std::runtime_error{
          "DirectDeliveryAgent: cannot restore event kind " +
          std::to_string(static_cast<int>(desc.kind))};
  }
}

}  // namespace glr::routing
