#include "checkpoint/scenario_checkpoint.hpp"

#include <stdexcept>
#include <string>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"
#include "checkpoint/file.hpp"
#include "dtn/metrics.hpp"
#include "experiment/traffic.hpp"
#include "mac/mac.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"

namespace glr::ckpt {

namespace {

void digestMobility(Encoder& e, const experiment::MobilitySpec& m) {
  e.str(m.model);
  e.i32(m.numClusters);
  const mobility::ModelParams& p = m.params;
  // area/speedMin/speedMax/pause are overlaid from ScenarioConfig (already
  // digested); home is overlaid per node from the cluster stream.
  e.f64(p.legDuration);
  e.f64(p.updateInterval);
  e.f64(p.alpha);
  e.f64(p.meanSpeed);
  e.f64(p.gridSpacing);
  e.f64(p.turnProb);
  e.f64(p.clusterStddev);
  e.f64(p.roamProb);
}

void digestTraffic(Encoder& e, const experiment::TrafficSpec& t) {
  e.str(t.model);
  e.f64(t.rate);
  e.u64(t.maxMessages);
  e.f64(t.onMean);
  e.f64(t.offMean);
  e.f64(t.hotspotFraction);
  e.f64(t.hotspotWeight);
  e.f64(t.flashStart);
  e.f64(t.flashDuration);
  e.f64(t.flashMultiplier);
}

void digestFaults(Encoder& e, const experiment::FaultSpec& f) {
  e.boolean(f.enabled);
  const net::FaultProcess::Params& p = f.params;
  e.f64(p.start);
  e.f64(p.burstRate);
  e.f64(p.burstMean);
  e.f64(p.lossProb);
  e.f64(p.corruptProb);
  e.f64(p.stallRate);
  e.f64(p.stallMean);
  const net::AdversaryModel::Params& a = p.adversary;
  e.f64(a.blackholeFraction);
  e.f64(a.greyholeFraction);
  e.f64(a.greyholeDropProb);
  e.f64(a.selfishFraction);
  e.f64(a.flappingFraction);
  e.f64(a.flapUpMean);
  e.f64(a.flapDownMean);
}

/// Bytes per pending-event record: (timeBits, seq) key + descriptor.
constexpr std::size_t kEventRecordBytes = 58;

/// One pending-event record: its (timeBits, seq) key and descriptor.
template <class Ar>
void visitEvent(Ar& ar, sim::Simulator::PendingEvent& ev) {
  ar.u64(ev.key.timeBits);
  ar.u64(ev.key.seq);
  sim::EventDesc& desc = ev.desc;
  ar.u16(desc.kind);
  ar.u8(desc.b0);
  ar.u8(desc.b1);
  ar.i32(desc.i0);
  ar.i32(desc.i1);
  ar.u64(desc.u0);
  ar.u64(desc.u1);
  ar.f64(desc.f0);
  ar.f64(desc.f1);
}

/// Per node: its MAC, then its routing agent.
template <class Ar>
void visitNodes(Ar& ar, const ScenarioComponents& c) {
  ar.expectEqual(c.agents->size(), "node count");
  for (std::size_t i = 0; i < c.agents->size(); ++i) {
    try {
      c.world->macOf(static_cast<int>(i)).visit(ar);
      (*c.agents)[i]->visit(ar);
    } catch (const std::runtime_error& err) {
      throw std::runtime_error{std::string{err.what()} + " [node " +
                               std::to_string(i) + "]"};
    }
  }
}

/// Calls `fn(id, visit)` for every component section, in file order (after
/// the events section); `visit(ar)` visits the section's state with either
/// archive. Absent components have no section.
template <class Fn>
void forEachComponentSection(const ScenarioComponents& c, Fn&& fn) {
  fn(kSectionChannel, [&](auto& ar) { c.world->channel().visit(ar); });
  fn(kSectionNodes, [&](auto& ar) { visitNodes(ar, c); });
  if (c.churn != nullptr) {
    fn(kSectionChurn, [&](auto& ar) { c.churn->visit(ar); });
  }
  if (c.faults != nullptr) {
    fn(kSectionFaults, [&](auto& ar) { c.faults->visit(ar); });
  }
  if (c.traffic != nullptr) {
    fn(kSectionTraffic, [&](auto& ar) { c.traffic->visit(ar); });
  }
  fn(kSectionMetrics, [&](auto& ar) { c.metrics->visit(ar); });
}

[[nodiscard]] Decoder sectionDecoder(const CheckpointFile& f, std::uint32_t id,
                                     const std::string& path) {
  const Section& s = f.section(id, path);
  return Decoder{s.bytes.data(), s.bytes.size(),
                 path + " " + sectionName(id) + " section"};
}

/// Loud agreement check between a config-built component and its section.
void requireAgreement(bool componentPresent, const CheckpointFile& f,
                      std::uint32_t id, const std::string& path) {
  bool sectionPresent = false;
  for (const Section& s : f.sections) sectionPresent |= s.id == id;
  if (componentPresent == sectionPresent) return;
  throw std::runtime_error{std::string{"checkpoint "} + path + ": " +
                           sectionName(id) +
                           (sectionPresent
                                ? " section present but the configuration "
                                  "does not build that component"
                                : " component built but its section is "
                                  "missing from the checkpoint")};
}

}  // namespace

const char* sectionName(std::uint32_t id) {
  switch (id) {
    case kSectionEvents: return "events";
    case kSectionChannel: return "channel";
    case kSectionNodes: return "nodes";
    case kSectionChurn: return "churn";
    case kSectionFaults: return "faults";
    case kSectionTraffic: return "traffic";
    case kSectionMetrics: return "metrics";
    default: return "unknown";
  }
}

std::uint64_t configDigest(const experiment::ScenarioConfig& cfg) {
  Encoder e;
  e.u16(1);  // digest schema version
  e.i32(static_cast<std::int32_t>(cfg.protocol));
  e.i32(cfg.numNodes);
  e.f64(cfg.areaWidth);
  e.f64(cfg.areaHeight);
  e.f64(cfg.radius);
  e.f64(cfg.speedMin);
  e.f64(cfg.speedMax);
  e.f64(cfg.pause);
  e.f64(cfg.bitRateBps);
  e.u64(cfg.queueLimit);
  digestMobility(e, cfg.mobility);
  e.boolean(cfg.churn.enabled);
  e.f64(cfg.churn.params.fraction);
  e.f64(cfg.churn.params.upMean);
  e.f64(cfg.churn.params.downMean);
  e.f64(cfg.churn.params.start);
  e.f64(cfg.radiusSpreadMin);
  e.f64(cfg.radiusSpreadMax);
  e.f64(cfg.simTime);
  e.i32(cfg.numMessages);
  e.f64(cfg.messageInterval);
  e.f64(cfg.trafficStart);
  e.i32(cfg.trafficNodes);
  digestTraffic(e, cfg.traffic);
  digestFaults(e, cfg.faults);
  e.u64(cfg.storageLimit);
  e.f64(cfg.checkInterval);
  e.boolean(cfg.custody);
  e.boolean(cfg.faceRouting);
  // Slot of the retired per-node witness-veto switch. It defaulted to on,
  // so hashing `true` here keeps every config digest, and with it every
  // checkpoint and sweep-journal digest, unchanged.
  e.boolean(true);
  e.i32(cfg.copiesOverride);
  e.i32(static_cast<std::int32_t>(cfg.locationMode));
  e.f64(cfg.helloInterval);
  e.f64(cfg.cacheTimeout);
  e.i32(cfg.sprayBudget);
  e.u64(cfg.custodyWatermark);
  e.boolean(cfg.congestionControl);
  e.boolean(cfg.glrRecovery);
  e.i32(cfg.glrSuspicionThreshold);
  e.i32(cfg.glrRecoveryAfterFailures);
  e.i32(cfg.glrRecoveryFanout);
  e.f64(cfg.glrRecoveryCooldown);
  e.f64(cfg.glrSuspicionTtl);
  e.f64(cfg.messageTtl);
  e.i32(static_cast<std::int32_t>(cfg.kernelQueue));
  e.i32(static_cast<std::int32_t>(cfg.spatialIndex));
  e.f64(cfg.neighborEvictAfterFactor);
  e.f64(cfg.locationEvictAfter);
  e.f64(cfg.checkpointEvery);
  e.u64(cfg.seed);
  const std::vector<unsigned char> bytes = e.take();
  return fnv1a64(bytes.data(), bytes.size());
}

void writeCheckpoint(const std::string& path, const ScenarioComponents& c) {
  if (c.sim == nullptr || c.world == nullptr || c.cfg == nullptr ||
      c.agents == nullptr || c.metrics == nullptr) {
    throw std::logic_error{"writeCheckpoint: incomplete components"};
  }
  CheckpointFile f;
  f.configDigest = configDigest(*c.cfg);
  f.simNow = c.sim->now();
  f.nextSeq = c.sim->nextSeq();
  f.executed = c.sim->eventsExecuted();

  // Pending events, in exact fire order. An undescribed event is a silently
  // unrestorable checkpoint, so it refuses here, at snapshot time.
  auto pending = c.sim->pendingEvents();
  Encoder events;
  events.count(pending.size(), kEventRecordBytes);
  for (auto& ev : pending) {
    if (ev.desc.kind == kNone) {
      throw std::runtime_error{
          "writeCheckpoint: pending event at t=" +
          std::to_string(sim::Simulator::bitsToTime(ev.key.timeBits)) +
          " seq=" + std::to_string(ev.key.seq) +
          " has no descriptor (untagged schedule site)"};
    }
    visitEvent(events, ev);
  }
  f.addSection(kSectionEvents, events.take());

  forEachComponentSection(c, [&](std::uint32_t id, auto&& visit) {
    Encoder e;
    visit(e);
    f.addSection(id, e.take());
  });

  f.write(path);
}

void restoreCheckpoint(const std::string& path, const ScenarioComponents& c) {
  if (c.sim == nullptr || c.world == nullptr || c.cfg == nullptr ||
      c.agents == nullptr || c.metrics == nullptr) {
    throw std::logic_error{"restoreCheckpoint: incomplete components"};
  }
  if (!c.cfg->tracePath.empty()) {
    throw std::runtime_error{
        "restoreCheckpoint: refusing to restore with tracing armed — the "
        "flight recorder cannot rewind to mid-run state (re-run the traced "
        "scenario from the start instead)"};
  }
  const CheckpointFile f = CheckpointFile::read(path);
  const std::uint64_t expect = configDigest(*c.cfg);
  if (f.configDigest != expect) {
    throw std::runtime_error{
        "checkpoint " + path +
        ": was written under a different configuration (digest " +
        std::to_string(f.configDigest) + ", this run " +
        std::to_string(expect) + ") — refusing to restore"};
  }
  requireAgreement(c.churn != nullptr, f, kSectionChurn, path);
  requireAgreement(c.faults != nullptr, f, kSectionFaults, path);
  requireAgreement(c.traffic != nullptr, f, kSectionTraffic, path);

  // Kernel first: drop every construction-time event, rewind the clock and
  // counters, then overwrite component state before any event re-creation
  // (restore*Event methods re-arm cancellation handles that the restoring
  // visits reset).
  c.sim->clearPending();
  c.sim->restoreClock(f.simNow, f.nextSeq, f.executed);
  c.world->invalidatePositionCache();

  forEachComponentSection(c, [&](std::uint32_t id, auto&& visit) {
    Decoder d = sectionDecoder(f, id, path);
    visit(d);
    d.expectEnd();
  });

  // Pending events last, each dispatched to its owning component and
  // re-created under the exact saved (timeBits, seq) key.
  Decoder d = sectionDecoder(f, kSectionEvents, path);
  std::size_t nEvents = 0;
  d.count(nEvents, kEventRecordBytes);
  const int numNodes = static_cast<int>(c.agents->size());
  for (std::size_t i = 0; i < nEvents; ++i) {
    sim::Simulator::PendingEvent ev;
    visitEvent(d, ev);
    const sim::EventKey& key = ev.key;
    const sim::EventDesc& desc = ev.desc;

    const auto nodeOf = [&](std::int32_t id) {
      if (id < 0 || id >= numNodes) {
        d.fail("event names node " + std::to_string(id) +
               " outside the population");
      }
      return id;
    };

    switch (desc.kind) {
      case kChannelTxEnd:
        c.world->channel().restoreTxEndEvent(key, desc.u0);
        break;
      case kMacAttempt:
        c.world->macOf(nodeOf(desc.i0)).restoreAttemptEvent(key);
        break;
      case kMacBackoffExpire:
        c.world->macOf(nodeOf(desc.i0)).restoreBackoffEvent(key);
        break;
      case kMacTxEnd:
        c.world->macOf(nodeOf(desc.i0))
            .restoreTxEndEvent(key, desc.b0 != 0, desc.u0);
        break;
      case kMacAckTimeout:
        c.world->macOf(nodeOf(desc.i0)).restoreAckTimeoutEvent(key);
        break;
      case kMacAckReply:
        c.world->macOf(nodeOf(desc.i0))
            .restoreAckReplyEvent(key, desc.i1, desc.u0, desc.f0, desc.u1);
        break;
      case kAgentStart:
        c.world->restoreAgentStartEvent(key, nodeOf(desc.i0));
        break;
      case kChurnToggle:
        if (c.churn == nullptr) d.fail("churn event without churn");
        c.churn->restoreToggleEvent(key,
                                    static_cast<std::size_t>(desc.u0));
        break;
      case kFaultBurstNext:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreBurstNextEvent(key);
        break;
      case kFaultBurstEnd:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreBurstEndEvent(key);
        break;
      case kFaultStallNext:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreStallNextEvent(key);
        break;
      case kFaultStallEnd:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreStallEndEvent(key, nodeOf(desc.i0));
        break;
      case kFaultFlap:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreFlapEvent(key, nodeOf(desc.i0), desc.b0 != 0);
        break;
      case kHello:
      case kGlrPeriodicCheck:
      case kGlrQueuedCheck:
      case kGlrAckRetry:
      case kGlrCustodyTimer:
      case kEpidemicExchange:
      case kSprayExpiry:
      case kDirectCheck:
        (*c.agents)[static_cast<std::size_t>(nodeOf(desc.i0))]->restoreEvent(
            key, desc);
        break;
      case kTrafficPaperArrival: {
        routing::DtnAgent* agent =
            (*c.agents)[static_cast<std::size_t>(nodeOf(desc.i0))];
        const int dst = nodeOf(desc.i1);
        c.sim->scheduleKeyed(key, desc,
                             [agent, dst] { agent->originate(dst); });
        break;
      }
      case kTrafficArrival:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreArrivalEvent(key);
        break;
      case kTrafficSourceToggle:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreToggleEvent(key,
                                      static_cast<std::size_t>(desc.u0));
        break;
      case kTrafficSourceArrival:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreSourceArrivalEvent(
            key, static_cast<std::size_t>(desc.u0), desc.u1);
        break;
      case kCheckpointTimer:
        if (!c.restoreCheckpointTimer) {
          d.fail("checkpoint-timer event but no writer hook installed");
        }
        c.restoreCheckpointTimer(key);
        break;
      default:
        d.fail("unknown event kind " + std::to_string(desc.kind));
    }
  }
  d.expectEnd();
}

}  // namespace glr::ckpt
