#include "routing/spray_wait.hpp"

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"
#include "trace/recorder.hpp"

#include "net/faults.hpp"

namespace glr::routing {

SprayWaitAgent::SprayWaitAgent(net::World& world, int self,
                               std::shared_ptr<const SprayWaitParams> params,
                               dtn::MetricsCollector* metrics, sim::Rng rng)
    : AgentBase(world, self, metrics, rng, {params, &params->hello},
                params->storageLimit, params->expectedBufferedCopies),
      params_(std::move(params)) {}

SprayWaitAgent::SprayWaitAgent(net::World& world, int self,
                               SprayWaitParams params,
                               dtn::MetricsCollector* metrics, sim::Rng rng)
    : SprayWaitAgent(
          world, self,
          std::make_shared<const SprayWaitParams>(std::move(params)), metrics,
          rng) {}

void SprayWaitAgent::start() {
  neighbors_.start();
  // The expiry sweep exists only when a TTL is configured, so TTL-less runs
  // execute a bit-identical event sequence to the historical behavior.
  if (params_->messageTtl > 0.0) {
    world_.sim().schedule(rng_.uniform(0.0, params_->expiryCheckInterval),
                          *this, {.kind = ckpt::kSprayExpiry, .i0 = self_});
  }
}

void SprayWaitAgent::expiryTick() {
  if (buffer_.expireDue(world_.sim().now()) > 0) {
    // Drop budget bookkeeping for ids no longer held anywhere.
    for (auto it = budget_.begin(); it != budget_.end();) {
      if (!buffer_.containsAnyBranch(it->first)) {
        it = budget_.erase(it);
      } else {
        ++it;
      }
    }
  }
  world_.sim().schedule(params_->expiryCheckInterval, *this,
                        {.kind = ckpt::kSprayExpiry, .i0 = self_});
}

void SprayWaitAgent::originate(int dstNode) {
  dtn::Message m =
      newMessage(dstNode, params_->payloadBytes, params_->messageTtl);
  budget_[m.id] = params_->copyBudget;
  buffer_.addToStore(std::move(m));
  // Offer immediately to whoever is already around (a fresh message would
  // otherwise wait for the next contact event).
  for (const int j : neighbors_.currentNeighbors()) onContact(j);
}

void SprayWaitAgent::onContact(int id) {
  // Offer ids we can spray (budget > 1) or that the contact itself wants
  // (it is their destination). Built in place in a recycled arena block
  // (clear() keeps capacity), like the epidemic summary path.
  net::Payload payload = net::Payload::create<SummaryVector>();
  SummaryVector& sv = payload.mutableValue<SummaryVector>();
  sv.ids.clear();
  for (const dtn::CopyKey& key : buffer_.storeKeys()) {
    const dtn::Message* m = buffer_.findInStore(key);
    if (m == nullptr) continue;
    const int b = budget_[key.id];
    if (b > 1 || m->dstNode == id) sv.ids.push_back(key.id);
  }
  if (sv.ids.empty()) return;
  net::Packet p;
  p.kind = kSwSvKind;
  p.bytes = params_->svHeaderBytes + params_->svEntryBytes * sv.ids.size();
  p.payload = std::move(payload);
  if (!world_.macOf(self_).send(std::move(p), id)) ++tally().sendRejects;
}

void SprayWaitAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;

  if (packet.kind == kSwSvKind) {
    const auto* sv = packet.payload.get<SummaryVector>();
    if (sv == nullptr) return;
    net::Payload payload = net::Payload::create<RequestVector>();
    RequestVector& req = payload.mutableValue<RequestVector>();
    req.ids.clear();
    for (const dtn::MessageId& id : sv->ids) {
      if (!buffer_.containsAnyBranch(id) && !deliveredHere(id)) {
        req.ids.push_back(id);
      }
    }
    if (req.ids.empty()) return;
    net::Packet p;
    p.kind = kSwReqKind;
    p.bytes = params_->svHeaderBytes + params_->svEntryBytes * req.ids.size();
    p.payload = std::move(payload);
    if (!world_.macOf(self_).send(std::move(p), fromMac)) {
      ++tally().sendRejects;
    }
    return;
  }

  if (packet.kind == kSwReqKind) {
    const auto* req = packet.payload.get<RequestVector>();
    if (req == nullptr) return;
    for (const dtn::MessageId& id : req->ids) {
      dtn::Message* m = buffer_.findInStore({id, dtn::TreeFlag::kNone});
      if (m == nullptr) continue;
      int& b = budget_[id];
      const bool toDestination = m->dstNode == fromMac;
      if (b <= 1 && !toDestination) continue;  // wait phase: destination only
      SprayData out;
      out.message = *m;
      out.budget = toDestination ? 1 : b - b / 2;  // hand over half (binary)
      net::Packet p;
      p.kind = kSwDataKind;
      p.bytes = m->payloadBytes + params_->dataHeaderBytes;
      p.payload = net::Payload::of(out);
      if (world_.macOf(self_).send(std::move(p), fromMac)) {
        ++tally().dataSent;
        if (trace::Recorder* t = world_.trace()) {
          t->record(trace::EventType::kSend, self_, fromMac, id.src, id.seq);
        }
      } else {
        ++tally().sendRejects;
      }
      if (toDestination) {
        buffer_.erase({id, dtn::TreeFlag::kNone});
        budget_.erase(id);
      } else {
        b -= out.budget;
      }
    }
    return;
  }

  if (packet.kind == kSwDataKind) {
    const auto* sd = packet.payload.get<SprayData>();
    if (sd == nullptr) return;
    dtn::Message m = sd->message;
    m.hops += 1;
    ++tally().dataReceived;
    // Relay-path adversary hook (own traffic always accepted). The sender
    // has already handed over half its budget, so a blackhole relay burns
    // logical copies — exactly the attack surface the resilience bench
    // measures. Spray-and-Wait has no custody, so refusal == drop here.
    if (m.dstNode != self_) {
      if (net::AdversaryModel* adv = world_.adversary()) {
        if (adv->onRelayData(self_) !=
            net::AdversaryModel::RelayDecision::kAccept) {
          return;
        }
      }
    }
    if (m.dstNode == self_) {
      deliverHere(m, m.hops);
      return;
    }
    if (buffer_.containsAnyBranch(m.id)) return;
    const int budget = sd->budget;
    const int dst = m.dstNode;
    budget_[m.id] = budget;
    buffer_.addToStore(std::move(m));
    if (budget > 1 || neighbors_.isNeighbor(dst)) {
      for (const int j : neighbors_.currentNeighbors()) {
        if (j != fromMac) onContact(j);
      }
    }
  }
}

template <class Ar>
void SprayWaitAgent::visitState(Ar& ar) {
  AgentBase::visit(ar);
  ar.unorderedMap(budget_, [&](dtn::MessageId& id, int& budget) {
    ckpt::visit(ar, id);
    ar.i32(budget);
  });
}

void SprayWaitAgent::visit(ckpt::Encoder& ar) { visitState(ar); }
void SprayWaitAgent::visit(ckpt::Decoder& ar) { visitState(ar); }

void SprayWaitAgent::onEvent(const sim::EventDesc& desc) {
  if (desc.kind == ckpt::kSprayExpiry) {
    expiryTick();
  } else {
    AgentBase::onEvent(desc);
  }
}

}  // namespace glr::routing
