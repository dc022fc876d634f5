#include "routing/epidemic.hpp"

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"
#include "trace/recorder.hpp"

#include "net/faults.hpp"

namespace glr::routing {

EpidemicAgent::EpidemicAgent(net::World& world, int self,
                             std::shared_ptr<const EpidemicParams> params,
                             dtn::MetricsCollector* metrics, sim::Rng rng)
    : AgentBase(world, self, metrics, rng, {params, &params->hello},
                params->storageLimit, params->expectedBufferedCopies),
      params_(std::move(params)) {}

EpidemicAgent::EpidemicAgent(net::World& world, int self,
                             EpidemicParams params,
                             dtn::MetricsCollector* metrics, sim::Rng rng)
    : EpidemicAgent(world, self,
                    std::make_shared<const EpidemicParams>(std::move(params)),
                    metrics, rng) {}

void EpidemicAgent::start() {
  neighbors_.start();
  world_.sim().schedule(rng_.uniform(0.0, params_->exchangeCheckInterval),
                        *this, {.kind = ckpt::kEpidemicExchange, .i0 = self_});
}

void EpidemicAgent::exchangeTick() {
  if (params_->messageTtl > 0.0) buffer_.expireDue(world_.sim().now());
  // Delta re-offers to neighbors that have not seen our latest additions,
  // rate-limited per pair (covers messages originated during a long-lived
  // contact without flooding full summary vectors every second).
  if (buffer_.size() > 0) {
    for (const int j : neighbors_.currentNeighbors()) {
      const auto it = offeredUpTo_.find(j);
      if (it != offeredUpTo_.end() && it->second >= addSeq_) continue;
      const auto at = lastOfferAt_.find(j);
      if (at != lastOfferAt_.end() &&
          world_.sim().now() - at->second < params_->svMinInterval) {
        continue;
      }
      sendSummary(j, /*full=*/false);
    }
  }
  world_.sim().schedule(params_->exchangeCheckInterval, *this,
                        {.kind = ckpt::kEpidemicExchange, .i0 = self_});
}

void EpidemicAgent::sendSummary(int to, bool full) {
  const std::uint64_t watermark = full ? 0 : offeredUpTo_[to];
  // Build directly inside a recycled arena block (clear() keeps capacity).
  net::Payload payload = net::Payload::create<SummaryVector>();
  SummaryVector& sv = payload.mutableValue<SummaryVector>();
  sv.ids.clear();
  for (const auto& [seq, id] : additions_) {
    if (seq > watermark && buffer_.containsAnyBranch(id)) {
      sv.ids.push_back(id);
    }
  }
  offeredUpTo_[to] = addSeq_;
  lastOfferAt_[to] = world_.sim().now();
  if (sv.ids.empty()) return;

  net::Packet p;
  p.kind = kEpSvKind;
  p.bytes = params_->svHeaderBytes + params_->svEntryBytes * sv.ids.size();
  p.payload = std::move(payload);
  if (!world_.macOf(self_).send(std::move(p), to)) ++tally().sendRejects;
}

void EpidemicAgent::originate(int dstNode) {
  addMessage(newMessage(dstNode, params_->payloadBytes, params_->messageTtl));
}

void EpidemicAgent::addMessage(dtn::Message m) {
  const dtn::MessageId id = m.id;
  if (buffer_.addToStore(std::move(m))) {
    additions_.emplace_back(++addSeq_, id);
  }
}

void EpidemicAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;

  if (packet.kind == kEpSvKind) {
    const auto* sv = packet.payload.get<SummaryVector>();
    if (sv == nullptr) return;
    net::Payload payload = net::Payload::create<RequestVector>();
    RequestVector& req = payload.mutableValue<RequestVector>();
    req.ids.clear();
    for (const dtn::MessageId& id : sv->ids) {
      if (buffer_.containsAnyBranch(id) || deliveredHere(id)) {
        continue;
      }
      // One outstanding request per id: dense networks offer the same
      // message from many neighbors within milliseconds.
      const auto it = requestedAt_.find(id);
      if (it != requestedAt_.end() &&
          world_.sim().now() - it->second < params_->requestWindow) {
        continue;
      }
      requestedAt_[id] = world_.sim().now();
      req.ids.push_back(id);
    }
    if (req.ids.empty()) return;
    net::Packet p;
    p.kind = kEpReqKind;
    p.bytes = params_->svHeaderBytes + params_->svEntryBytes * req.ids.size();
    p.payload = std::move(payload);
    if (!world_.macOf(self_).send(std::move(p), fromMac)) {
      ++tally().sendRejects;
    }
    return;
  }

  if (packet.kind == kEpReqKind) {
    const auto* req = packet.payload.get<RequestVector>();
    if (req == nullptr) return;
    for (const dtn::MessageId& id : req->ids) {
      dtn::Message* m = buffer_.findInStore({id, dtn::TreeFlag::kNone});
      if (m == nullptr) continue;  // dropped since the summary was sent
      net::Packet p;
      p.kind = kEpDataKind;
      p.bytes = m->payloadBytes + params_->dataHeaderBytes;
      p.payload = net::Payload::of(*m);
      if (!world_.macOf(self_).send(std::move(p), fromMac)) {
        ++tally().sendRejects;
      }
      ++tally().dataSent;
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSend, self_, fromMac, id.src, id.seq);
      }
    }
    return;
  }

  if (packet.kind == kEpDataKind) {
    const auto* pm = packet.payload.get<dtn::Message>();
    if (pm == nullptr) return;
    dtn::Message m = *pm;
    m.hops += 1;
    ++tally().dataReceived;
    // Adversaries misbehave only on the relay path: traffic addressed to
    // this node is always delivered (and the drop is counted centrally by
    // the AdversaryModel, never silently). Epidemic has no custody, so a
    // selfish refusal degenerates to the same silent non-storage as a drop.
    if (m.dstNode != self_) {
      if (net::AdversaryModel* adv = world_.adversary()) {
        if (adv->onRelayData(self_) !=
            net::AdversaryModel::RelayDecision::kAccept) {
          return;
        }
      }
    }
    if (buffer_.containsAnyBranch(m.id) || deliveredHere(m.id)) {
      ++tally().duplicatesDropped;
      return;
    }
    if (m.dstNode == self_) {
      deliverHere(m, m.hops);
      // The destination keeps the message buffered (epidemic never clears),
      // which also stops neighbors from re-sending it here.
    }
    addMessage(std::move(m));
  }
}

template <class Ar>
void EpidemicAgent::visitState(Ar& ar) {
  AgentBase::visit(ar);
  ar.sequence(additions_, 12,
              [&](std::pair<std::uint64_t, dtn::MessageId>& added) {
                ar.u64(added.first);
                ckpt::visit(ar, added.second);
              });
  ar.u64(addSeq_);
  ar.unorderedMap(offeredUpTo_, [&](int& id, std::uint64_t& seq) {
    ar.i32(id);
    ar.u64(seq);
  });
  ar.unorderedMap(lastOfferAt_, [&](int& id, sim::SimTime& at) {
    ar.i32(id);
    ar.f64(at);
  });
  ar.unorderedMap(requestedAt_, [&](dtn::MessageId& id, sim::SimTime& at) {
    ckpt::visit(ar, id);
    ar.f64(at);
  });
}

void EpidemicAgent::visit(ckpt::Encoder& ar) { visitState(ar); }
void EpidemicAgent::visit(ckpt::Decoder& ar) { visitState(ar); }

void EpidemicAgent::onEvent(const sim::EventDesc& desc) {
  if (desc.kind == ckpt::kEpidemicExchange) {
    exchangeTick();
  } else {
    AgentBase::onEvent(desc);
  }
}

}  // namespace glr::routing
