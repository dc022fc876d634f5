#include "core/glr_agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"
#include "core/face.hpp"
#include "core/trees.hpp"
#include "net/faults.hpp"
#include "trace/recorder.hpp"
#include "spanner/ldtg.hpp"

namespace glr::core {

GlrAgent::GlrAgent(net::World& world, int self, GlrParams params,
                   dtn::MetricsCollector* metrics, sim::Rng rng)
    : GlrAgent(world, self,
               std::make_shared<const GlrParams>(std::move(params)), metrics,
               rng) {}

GlrAgent::GlrAgent(net::World& world, int self,
                   std::shared_ptr<const GlrParams> params,
                   dtn::MetricsCollector* metrics, sim::Rng rng)
    : AgentBase(world, self, metrics, rng,
                {params, &params->hello}, params->storageLimit,
                params->expectedBufferedCopies),
      params_(std::move(params)) {
  if (!(params_->checkInterval > 0.0)) {
    throw std::invalid_argument{"GlrAgent: checkInterval must be > 0"};
  }
}

void GlrAgent::onLocationSample(int id, geom::Point2 pos, sim::SimTime at) {
  // Only destinations are ever looked up (resolveDestination).
  if (params_->destinationIds > 0 && id >= params_->destinationIds) return;
  locations_.update(id, pos, at);
}

void GlrAgent::onContact(int /*id*/) {
  // "When its relative location with respect to the neighboring nodes
  // changes and new path emerges ... it will send the stored messages."
  // A new contact clears every stored copy's retry backoff and triggers
  // an immediate route check.
  if (buffer_.storeSize() == 0) return;
  buffer_.forEachInStore([](dtn::Message& m) {
    m.waitChecks = 0;
    m.retryBackoff = 1;
  });
  if (checkQueued_) return;
  checkQueued_ = true;
  world_.sim().schedule(0.01, *this,
                        {.kind = ckpt::kGlrQueuedCheck, .i0 = self_});
}

void GlrAgent::onQueuedCheck() {
  checkQueued_ = false;
  checkRoutes();
}

int GlrAgent::copyCount() const {
  if (params_->copiesOverride > 0) return params_->copiesOverride;
  return decideCopyCount(params_->network, params_->sparseCopies);
}

void GlrAgent::start() {
  neighbors_.start();
  // Desynchronized periodic route checks.
  world_.sim().schedule(rng_.uniform(0.0, params_->checkInterval), *this,
                        {.kind = ckpt::kGlrPeriodicCheck, .i0 = self_});
}

void GlrAgent::periodicCheck() {
  if (params_->locationEvictAfter > 0.0) {
    locations_.prune(world_.sim().now() - params_->locationEvictAfter);
  }
  // TTL sweep (gated so TTL-less runs never pay the scan): expired copies
  // leave as counted drops; a pending custody timer for an expired cached
  // copy finds its entry gone and stays silent.
  if (params_->messageTtl > 0.0) buffer_.expireDue(world_.sim().now());
  checkRoutes();
  world_.sim().schedule(params_->checkInterval, *this,
                        {.kind = ckpt::kGlrPeriodicCheck, .i0 = self_});
}

void GlrAgent::originate(int dstNode) {
  if (params_->destinationIds > 0 &&
      (dstNode < 0 || dstNode >= params_->destinationIds)) {
    throw std::invalid_argument{
        "GlrAgent::originate: destination outside [0, destinationIds)"};
  }
  const int copies = copyCount();
  const auto flags = treeFlagsForCopies(copies);

  dtn::Message base =
      newMessage(dstNode, params_->payloadBytes, params_->messageTtl);

  switch (params_->locationMode) {
    case LocationMode::kOracleAll:
    case LocationMode::kSourceKnows:
      // Paper assumption: "Source knows the true destination location."
      base.destLoc = world_.positionOf(dstNode);
      base.destLocTime = world_.sim().now();
      base.destLocKnown = true;
      break;
    case LocationMode::kNoneKnow:
      // "Random location is given at the beginning."
      base.destLoc = {rng_.uniform(0.0, params_->network.areaWidth),
                      rng_.uniform(0.0, params_->network.areaHeight)};
      base.destLocTime = -1e17;  // ancient: any observation supersedes it
      base.destLocKnown = true;
      break;
  }

  for (const dtn::TreeFlag flag : flags) {
    dtn::Message copy = base;
    copy.flag = flag;
    buffer_.addToStore(std::move(copy));
  }
  // Kick an immediate check so fresh messages don't idle a full interval.
  if (!checkQueued_) {
    checkQueued_ = true;
    world_.sim().schedule(0.001, *this,
                          {.kind = ckpt::kGlrQueuedCheck, .i0 = self_});
  }
}

bool GlrAgent::resolveDestination(dtn::Message& m, geom::Point2& out) {
  if (params_->locationMode == LocationMode::kOracleAll) {
    out = world_.positionOf(m.dstNode);
    m.destLoc = out;
    m.destLocTime = world_.sim().now();
    m.destLocKnown = true;
    return true;
  }
  // Diffusion, both directions: the holder updates the header when it knows
  // a fresher location, and learns from the header when the header is
  // fresher (paper Sec. 2.3.1). Perturbed locations never enter the table.
  if (m.destLocKnown && !m.destLocPerturbed) {
    locations_.update(m.dstNode, m.destLoc, m.destLocTime);
  }
  if (const auto entry = locations_.lookup(m.dstNode);
      entry.has_value() && entry->at > m.destLocTime) {
    m.destLoc = entry->pos;
    m.destLocTime = entry->at;
    m.destLocKnown = true;
    m.destLocPerturbed = false;
  }
  if (!m.destLocKnown) return false;
  out = m.destLoc;
  return true;
}

void GlrAgent::maybePerturbDestination(dtn::Message& m) {
  // Stale-location fix (paper Sec. 3.3): the node closest to a wrong
  // destination location re-aims the copy at a nearby random location so it
  // can leave the local minimum. The perturbed location keeps its old
  // timestamp and is flagged, so it is never diffused as a genuine
  // observation and any fresher real sample supersedes it immediately.
  if (m.stuckCount < params_->stuckChecksBeforePerturb) return;
  if (world_.sim().now() - m.destLocTime < params_->staleLocationAge) return;
  if (world_.sim().now() - m.lastPerturbAt < params_->staleLocationAge) return;
  // The paper's trigger: the copy reached the node *closest to* the stale
  // location — i.e. we are standing at the phantom point and the
  // destination is not here. Copies stuck far away are stuck because of
  // partition, not staleness; perturbing them would be noise.
  if (geom::dist(myPos(), m.destLoc) > params_->network.radius) return;
  m.lastPerturbAt = world_.sim().now();
  const double r = params_->network.radius;
  m.destLoc.x = std::clamp(m.destLoc.x + rng_.uniform(-1.5 * r, 1.5 * r),
                           0.0, params_->network.areaWidth);
  m.destLoc.y = std::clamp(m.destLoc.y + rng_.uniform(-1.5 * r, 1.5 * r),
                           0.0, params_->network.areaHeight);
  m.destLocPerturbed = true;
  m.stuckCount = 0;
  ++tally().perturbations;
}

void GlrAgent::checkRoutes() {
  if (buffer_.storeSize() == 0) return;
  const geom::Point2 self = myPos();

  // Local LDTG star: computed once per check from beacon knowledge, gathered
  // into a per-thread buffer that keeps its capacity across checks, as the
  // progress candidates of each stored copy are below.
  static thread_local std::vector<spanner::KnownNode> knowledge;
  static thread_local std::vector<ProgressNeighbor> candidates;
  neighbors_.knowledge(knowledge);
  const auto spannerIds = spanner::localSpannerNeighbors(
      self_, self, knowledge, params_->network.radius);
  std::vector<std::pair<int, geom::Point2>> spannerNbrs;
  spannerNbrs.reserve(spannerIds.size());
  const double sendRange = params_->sendRangeGuard * params_->network.radius;
  for (const int id : spannerIds) {
    // Reroute-avoiding-suspects: a hop under an active suspect verdict is
    // excluded from this check's candidate set entirely (greedy and face
    // alike). Direct delivery below is exempt — the destination is the
    // endpoint of the custody chain, not a relay.
    if (params_->recovery && isSuspect(id)) {
      ++tally().suspectSkips;
      continue;
    }
    if (const auto pos = neighbors_.neighborPosition(id); pos.has_value()) {
      if (geom::dist(self, *pos) <= sendRange) {
        spannerNbrs.emplace_back(id, *pos);
      }
    }
  }

  int sendBudget = params_->maxSendsPerCheck;
  for (const dtn::CopyKey& key : buffer_.storeKeys()) {
    if (sendBudget <= 0) break;  // remaining copies wait for the next check
    dtn::Message* m = buffer_.findInStore(key);
    if (m == nullptr) continue;  // evicted or sent meanwhile

    // Recovery mode: a copy whose custody chain keeps failing (timeouts,
    // refusal NACKs, no-route checks) falls back to a bounded custody-free
    // spray before continuing normal routing below.
    if (params_->recovery &&
        m->deliveryFailures >= params_->recoveryAfterFailures &&
        world_.sim().now() >= m->lastRecoveryAt + params_->recoveryCooldown) {
      attemptRecovery(*m);
    }

    // Direct delivery when the destination is a current neighbor.
    if (neighbors_.isNeighbor(m->dstNode)) {
      if (sendCopy(key, m->dstNode)) --sendBudget;
      continue;
    }

    // Store-state backoff: after failed attempts the copy waits out checks
    // (cleared on new contacts) instead of re-walking a dead neighborhood.
    if (m->waitChecks > 0) {
      --m->waitChecks;
      continue;
    }

    geom::Point2 destPos;
    if (!resolveDestination(*m, destPos)) {
      ++m->stuckCount;
      continue;
    }

    progressNeighbors(self, destPos, spannerNbrs, candidates);

    // Face-mode exit: we are closer to the destination than where the copy
    // entered the face (standard perimeter-mode recovery rule).
    if (m->faceMode && geom::dist(self, destPos) <
                           geom::dist(m->faceEntry, destPos)) {
      m->faceMode = false;
      m->facePrevHop = -1;
    }

    // Shared failure path: count the stuck check, possibly perturb a stale
    // destination location, and back off exponentially (capped) until the
    // next attempt — unless the perturbation just opened a new direction.
    const auto noRoute = [&](dtn::Message& msg) {
      ++msg.stuckCount;
      // A check that found no usable next hop feeds the copy's recovery
      // pressure: repeated spanner route-check failure is the fallback
      // trigger (ROADMAP item 5), not just custody losses.
      if (params_->recovery) ++msg.deliveryFailures;
      const sim::SimTime before = msg.lastPerturbAt;
      maybePerturbDestination(msg);
      if (msg.lastPerturbAt != before) {
        msg.waitChecks = 0;  // retry greedy toward the perturbed location
      } else {
        msg.waitChecks = msg.retryBackoff;
        msg.retryBackoff = std::min(2 * msg.retryBackoff, 8);
      }
    };

    if (!m->faceMode) {
      if (const auto next = selectNextHop(m->flag, candidates);
          next.has_value()) {
        m->stuckCount = 0;
        m->retryBackoff = 1;
        // Real progress: a future local minimum is a new void, so the copy
        // may face-walk again.
        m->faceCooldownUntil = -1e18;
        m->faceExhaustions = 0;
        if (sendCopy(key, next->id)) --sendBudget;
        continue;
      }
      // Local minimum: try one face walk around the void. In a disconnected
      // component the walk loops back to us and the copy then waits in
      // store state (paper Sec. 3.2) until the neighborhood changes; a
      // cooldown stops the same dead face from being re-walked.
      if (params_->faceRouting && !spannerNbrs.empty() &&
          world_.sim().now() >= m->faceCooldownUntil) {
        m->faceMode = true;
        m->faceEntry = self;
        m->faceEntryNode = self_;
        m->faceHops = 0;
        m->facePrevHop = -1;
        ++tally().faceTransitions;
        const auto next = faceNextHop(self, destPos, spannerNbrs);
        if (next.has_value()) {
          m->faceHops = 1;
          if (sendCopy(key, *next)) --sendBudget;
          continue;
        }
        m->faceMode = false;
      }
      noRoute(*m);
      continue;
    }

    // In face mode. Give up the walk when it returned to its entry node or
    // exhausted its hop budget: store and wait for topology change.
    if ((m->faceEntryNode == self_ && m->faceHops > 0) ||
        m->faceHops >= params_->maxFaceHops) {
      m->faceMode = false;
      m->facePrevHop = -1;
      m->faceExhaustions = std::min(m->faceExhaustions + 1, 4);
      m->faceCooldownUntil =
          world_.sim().now() +
          params_->faceCooldown * static_cast<double>(1 << m->faceExhaustions);
      noRoute(*m);
      continue;
    }
    // Continue the right-hand walk relative to the hop we came from
    // (falling back to the destination direction if unknown).
    geom::Point2 ref = destPos;
    if (m->facePrevHop >= 0) {
      if (const auto p = neighbors_.neighborPosition(m->facePrevHop);
          p.has_value()) {
        ref = *p;
      }
    }
    if (const auto next = faceNextHop(self, ref, spannerNbrs);
        next.has_value()) {
      m->faceHops += 1;
      if (sendCopy(key, *next)) --sendBudget;
    } else {
      m->faceMode = false;
      m->faceExhaustions = std::min(m->faceExhaustions + 1, 4);
      m->faceCooldownUntil =
          world_.sim().now() +
          params_->faceCooldown * static_cast<double>(1 << m->faceExhaustions);
      noRoute(*m);
    }
  }
}

void GlrAgent::sendCustodyAck(const dtn::CopyKey& key, int to, int attempt,
                              bool accepted) {
  net::Packet ack;
  ack.kind = kGlrAckKind;
  ack.bytes = params_->custodyAckBytes;
  ack.payload = net::Payload::of(CustodyAck{key, accepted});
  if (world_.macOf(self_).send(std::move(ack), to)) {
    if (accepted) {
      ++tally().custodyAcksSent;
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kCustodyAccept, self_, to, key.id.src,
                  key.id.seq, 0, static_cast<std::uint8_t>(key.flag));
      }
    }
    return;
  }
  // Interface queue full: a lost custody ack forks the copy at the sender,
  // so retry shortly rather than relying on the sender's cache timeout.
  if (attempt < params_->ackRetries) {
    world_.sim().schedule(
        params_->ackRetryDelay, *this,
        {.kind = ckpt::kGlrAckRetry,
         .b0 = static_cast<std::uint8_t>(key.flag),
         .b1 = static_cast<std::uint8_t>(accepted),
         .i0 = self_,
         .i1 = to,
         .u0 = (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(key.id.src))
                << 32) |
               static_cast<std::uint32_t>(key.id.seq),
         .u1 = static_cast<std::uint64_t>(attempt + 1)});
  } else {
    // Out of retries: the ack is abandoned (the sender's custody timer
    // recovers the copy). Counted, never silent.
    ++tally().sendRejects;
  }
}

std::size_t GlrAgent::custodyWindowNow() const {
  if (!params_->congestionControl) return params_->custodyWindow;
  return static_cast<std::size_t>(cwnd_);
}

double GlrAgent::custodyTimeoutNow() const {
  if (!params_->congestionControl || !haveRtt_) return params_->cacheTimeout;
  const double rto = srtt_ + 4.0 * rttvar_;
  return std::clamp(rto, 1.0, params_->cacheTimeout);
}

void GlrAgent::recordCustodyRtt(double sample) {
  // RFC 6298 smoothing over custody-ack round trips.
  if (!haveRtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    haveRtt_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
}

void GlrAgent::onCongestionSignal() {
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = ssthresh_;
}

bool GlrAgent::isSuspect(int id) const {
  if (suspicion_ == nullptr) return false;
  const auto it = suspicion_->find(id);
  return it != suspicion_->end() && world_.sim().now() < it->second.until;
}

void GlrAgent::noteCustodyFailure(int hop) {
  if (suspicion_ == nullptr) {
    suspicion_ = std::make_unique<std::unordered_map<int, SuspectEntry>>();
  }
  SuspectEntry& s = (*suspicion_)[hop];
  ++s.failures;
  if (s.failures >= params_->suspicionThreshold) {
    const sim::SimTime now = world_.sim().now();
    // Count only fresh verdicts; failures while already suspect (in-flight
    // custody rounds draining) just extend the existing one.
    if (now >= s.until) {
      ++tally().suspicionsRaised;
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSuspicion, self_, hop, -1, -1,
                  static_cast<std::uint16_t>(s.failures));
      }
    }
    s.until = now + params_->suspicionTtl;
  }
}

void GlrAgent::noteCustodySuccess(int hop) {
  // An accepted custody ack is live evidence of honest relaying: drop the
  // score and any active verdict. A blackhole never produces one, so its
  // verdict only lapses by TTL; a greyhole must keep re-earning suspicion,
  // which is the price of its partial acking.
  if (suspicion_ != nullptr) suspicion_->erase(hop);
}

void GlrAgent::attemptRecovery(dtn::Message& m) {
  // Bounded spray fallback: clone the copy to up to recoveryFanout
  // non-suspect neighbors WITHOUT custody — this node keeps the original
  // (and custody) in its Store, the clones resume normal custody chains at
  // their recipients. Bypasses the custody window deliberately: the window
  // is flow control for the chain that is failing. Fanout, per-copy
  // cooldown and the duplicate merge at receivers bound the replication.
  ++tally().recoveryActivations;
  m.lastRecoveryAt = world_.sim().now();
  m.deliveryFailures = 0;
  int fanout = params_->recoveryFanout;
  for (const int id : neighbors_.currentNeighbors()) {  // sorted: stable order
    if (fanout <= 0) break;
    if (id == m.dstNode) continue;  // the direct-delivery path handles it
    if (isSuspect(id)) {
      ++tally().suspectSkips;
      continue;
    }
    dtn::Message clone = m;
    clone.facePrevHop = self_;
    net::Packet packet;
    packet.kind = kGlrDataKind;
    packet.bytes = clone.payloadBytes + params_->dataHeaderBytes;
    packet.payload = net::Payload::of(std::move(clone));
    if (world_.macOf(self_).send(std::move(packet), id)) {
      ++tally().recoverySprays;
      ++tally().dataSent;
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSend, self_, id, m.id.src, m.id.seq,
                  static_cast<std::uint16_t>(m.hops),
                  static_cast<std::uint8_t>(m.flag));
      }
      --fanout;
    } else {
      ++tally().sendRejects;
    }
  }
}

bool GlrAgent::sendCopy(const dtn::CopyKey& key, int nextHop) {
  dtn::Message* m = buffer_.findInStore(key);
  if (m == nullptr) return false;
  // Custody flow control: bound the copies awaiting acknowledgement so the
  // interface queue cannot be flooded by one route check.
  if (params_->custodyTransfer && buffer_.cacheSize() >= custodyWindowNow()) {
    return false;
  }
  dtn::Message outMsg = *m;
  outMsg.facePrevHop = self_;  // receiver's face reference is this node

  net::Packet packet;
  packet.kind = kGlrDataKind;
  packet.bytes = outMsg.payloadBytes + params_->dataHeaderBytes;
  packet.payload = net::Payload::of(outMsg);

  const bool queued = world_.macOf(self_).send(std::move(packet), nextHop);
  if (!queued) {
    // Interface queue full: the frame never went on air, so the copy simply
    // stays in the Store for a later check (no duplicate risk).
    ++tally().txFailures;
    ++tally().sendRejects;
    return false;
  }
  if (params_->custodyTransfer) {
    const sim::SimTime sentAt = world_.sim().now();
    buffer_.moveToCache(key, nextHop, sentAt);
    world_.sim().schedule(custodyTimeoutNow(), *this,
                          {.kind = ckpt::kGlrCustodyTimer,
                           .b0 = static_cast<std::uint8_t>(key.flag),
                           .i0 = self_,
                           .i1 = key.id.src,
                           .u0 = static_cast<std::uint32_t>(key.id.seq),
                           .f0 = sentAt});
  } else {
    buffer_.erase(key);
  }
  ++tally().dataSent;
  if (trace::Recorder* t = world_.trace()) {
    t->record(trace::EventType::kSend, self_, nextHop, key.id.src,
              key.id.seq, 0, static_cast<std::uint8_t>(key.flag));
  }
  return true;
}

void GlrAgent::onCustodyTimeout(const dtn::CopyKey& key, sim::SimTime sentAt) {
  // Act only if this exact custody round is still outstanding.
  if (buffer_.cacheEntrySentAt(key) != sentAt) return;
  // A withheld custody ack is the only observable signature of a blackhole
  // (it accepts the frame and stays silent), so the timeout is where
  // suspicion accrues against the chosen next hop.
  if (params_->recovery) {
    if (const auto hop = buffer_.cacheEntryNextHop(key)) {
      noteCustodyFailure(*hop);
    }
  }
  buffer_.returnToStore(key);
  ++tally().cacheTimeouts;
  if (params_->recovery) {
    if (dtn::Message* mm = buffer_.findInStore(key)) {
      ++mm->deliveryFailures;
    }
  }
  // An unacknowledged custody transfer is the loss signal for the
  // congestion window.
  if (params_->congestionControl) onCongestionSignal();
}

void GlrAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;
  if (packet.kind == kGlrDataKind) {
    handleData(packet, fromMac);
  } else if (packet.kind == kGlrAckKind) {
    handleAck(packet, fromMac);
  }
}

void GlrAgent::handleData(const net::Packet& packet, int fromMac) {
  const auto* pm = packet.payload.get<dtn::Message>();
  if (pm == nullptr) return;
  dtn::Message m = *pm;
  m.hops += 1;
  ++tally().dataReceived;

  // Adversarial behavior applies only to the relay path: a misbehaving node
  // still receives its own traffic (and originates normally). A blackhole
  // stays silent — no ack, so the sender's custody timeout fires and feeds
  // suspicion. A selfish node refuses politely with a NACK; the refusal is
  // counted by the AdversaryModel, not in custodyRefusals, so the
  // honest-pressure counter keeps its zero-when-off meaning.
  if (m.dstNode != self_) {
    if (net::AdversaryModel* adv = world_.adversary()) {
      switch (adv->onRelayData(self_)) {
        case net::AdversaryModel::RelayDecision::kAccept:
          break;
        case net::AdversaryModel::RelayDecision::kDrop:
          return;
        case net::AdversaryModel::RelayDecision::kRefuse:
          if (params_->custodyTransfer) {
            sendCustodyAck(m.key(), fromMac, 0, /*accepted=*/false);
          }
          return;
      }
    }
  }

  // Buffer-pressure custody refusal: at or above the watermark this node
  // declines new custody (NACK — the sender keeps its copy and backs off)
  // instead of accepting and evicting copies it already holds custody of.
  // Final delivery and fork merges are always accepted: they free storage.
  if (params_->custodyTransfer && params_->custodyWatermark > 0 &&
      m.dstNode != self_ && !deliveredHere(m.id) &&
      !buffer_.contains(m.key()) &&
      buffer_.size() >= params_->custodyWatermark) {
    ++tally().custodyRefusals;
    if (trace::Recorder* t = world_.trace()) {
      t->record(trace::EventType::kCustodyRefuse, self_, fromMac, m.id.src,
                m.id.seq, 0, static_cast<std::uint8_t>(m.flag));
    }
    sendCustodyAck(m.key(), fromMac, 0, /*accepted=*/false);
    return;
  }

  // Custody acknowledgement back to the sender — also for duplicates and
  // final delivery, so the sender clears its Cache either way.
  if (params_->custodyTransfer) {
    sendCustodyAck(m.key(), fromMac, 0);
  }

  // Location diffusion from the header.
  if (m.destLocKnown) {
    locations_.update(m.dstNode, m.destLoc, m.destLocTime);
  }

  if (m.dstNode == self_) {
    deliverHere(m, m.hops);
    // Delivered branches of the same message still buffered here (we might
    // have been a relay for them) are pointless now; drop them.
    buffer_.eraseAllBranches(m.id);
    return;
  }

  // Dropping a duplicate is safe only when this node itself still holds an
  // instance (or is the destination): the custody ack then merges the fork
  // without ever deleting the last live copy.
  if (deliveredHere(m.id) || buffer_.contains(m.key())) {
    ++tally().duplicatesDropped;
    return;
  }
  // Holder-local retry state restarts at each hop; the face cooldown
  // deliberately travels with the copy (cleared only by greedy progress).
  m.stuckCount = 0;
  m.waitChecks = 0;
  m.retryBackoff = 1;
  m.deliveryFailures = 0;
  m.lastRecoveryAt = -1e18;
  buffer_.addToStore(std::move(m));
}

void GlrAgent::handleAck(const net::Packet& packet, int fromMac) {
  const auto* ack = packet.payload.get<CustodyAck>();
  if (ack == nullptr) return;
  if (!ack->accepted) {
    // Custody refused: reclaim the copy immediately (no need to wait for
    // the cache timeout) and back it off exponentially so a saturated next
    // hop is not hammered every check. A refusal is also a congestion
    // signal for the AIMD window.
    if (params_->recovery) noteCustodyFailure(fromMac);
    if (buffer_.returnToStore(ack->key)) {
      if (dtn::Message* m = buffer_.findInStore(ack->key)) {
        m->waitChecks = m->retryBackoff;
        m->retryBackoff = std::min(2 * m->retryBackoff, 8);
        if (params_->recovery) ++m->deliveryFailures;
      }
    }
    if (params_->congestionControl) onCongestionSignal();
    return;
  }
  // RTT sample must be read before the cache entry is consumed.
  std::optional<sim::SimTime> sentAt;
  if (params_->congestionControl) {
    sentAt = buffer_.cacheEntrySentAt(ack->key);
  }
  if (buffer_.removeFromCache(ack->key).has_value()) {
    ++tally().custodyAcksReceived;
    if (params_->recovery) noteCustodySuccess(fromMac);
    if (params_->congestionControl) {
      if (sentAt.has_value()) {
        recordCustodyRtt(world_.sim().now() - *sentAt);
      }
      // Additive increase: slow start below ssthresh, then +1 per window.
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;
      } else {
        cwnd_ += 1.0 / cwnd_;
      }
    }
  }
}

void GlrAgent::onTxStatus(const net::Packet& packet, int /*dstMac*/,
                          bool success) {
  if (success || packet.kind != kGlrDataKind) return;
  ++tally().txFailures;
  // MAC gave up (next hop moved away / collisions): reschedule the copy now
  // rather than waiting for the full cache timeout.
  if (const auto* pm = packet.payload.get<dtn::Message>()) {
    buffer_.returnToStore(pm->key());
  }
}

template <class Ar>
void GlrAgent::visitState(Ar& ar) {
  AgentBase::visit(ar);
  locations_.visit(ar);
  ckpt::visitBuiltOnUse(ar, suspicion_, [&](auto& suspicion) {
    ar.unorderedMap(suspicion, [&](int& id, SuspectEntry& s) {
      ar.i32(id);
      ar.i32(s.failures);
      ar.f64(s.until);
    });
  });
  ar.boolean(checkQueued_);
  ar.f64(cwnd_);
  ar.f64(ssthresh_);
  ar.f64(srtt_);
  ar.f64(rttvar_);
  ar.boolean(haveRtt_);
}

void GlrAgent::visit(ckpt::Encoder& ar) { visitState(ar); }
void GlrAgent::visit(ckpt::Decoder& ar) { visitState(ar); }

void GlrAgent::onEvent(const sim::EventDesc& desc) {
  switch (desc.kind) {
    case ckpt::kGlrPeriodicCheck:
      periodicCheck();
      return;
    case ckpt::kGlrQueuedCheck:
      onQueuedCheck();
      return;
    case ckpt::kGlrAckRetry: {
      dtn::CopyKey key;
      key.id = {static_cast<int>(desc.u0 >> 32),
                static_cast<int>(desc.u0 & 0xffffffffu)};
      key.flag = static_cast<dtn::TreeFlag>(desc.b0);
      sendCustodyAck(key, desc.i1, static_cast<int>(desc.u1), desc.b1 != 0);
      return;
    }
    case ckpt::kGlrCustodyTimer: {
      dtn::CopyKey key;
      key.id = {desc.i1, static_cast<int>(desc.u0)};
      key.flag = static_cast<dtn::TreeFlag>(desc.b0);
      onCustodyTimeout(key, desc.f0);
      return;
    }
    default:
      AgentBase::onEvent(desc);
  }
}

}  // namespace glr::core
