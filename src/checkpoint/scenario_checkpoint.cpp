#include "checkpoint/scenario_checkpoint.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

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

/// One digested knob, encoded by type. A struct lands here only when no
/// overload below walks its field list, which fails to compile.
template <class T>
void digest(Encoder& e, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    e.boolean(v);
  } else if constexpr (std::is_same_v<T, double>) {
    e.f64(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                       std::is_same_v<T, std::size_t>) {
    e.u64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    e.str(v);
  } else if constexpr (std::is_same_v<T, int> || std::is_enum_v<T>) {
    e.i32(static_cast<std::int32_t>(v));
  } else {
    static_assert(sizeof(T) == 0,
                  "no digest encoding: a struct knob needs a field list");
  }
}

#define GLR_DIGEST(type, name, def) digest(e, v.name);
#define GLR_SKIP(type, name, def)
#define GLR_DIGEST_RETIRED(type, value) digest(e, type{value});
#define GLR_DIGEST_STRUCT(Type, LIST) \
  void digest(Encoder& e, const Type& v) { LIST(GLR_DIGEST) }
// Inner structs first: each walk names the overloads declared above it.
GLR_DIGEST_STRUCT(mobility::ModelParams, GLR_MOBILITY_MODEL_KNOBS)
GLR_DIGEST_STRUCT(net::ChurnProcess::Params, GLR_CHURN_PARAMS)
GLR_DIGEST_STRUCT(net::AdversaryModel::Params, GLR_ADVERSARY_PARAMS)
GLR_DIGEST_STRUCT(net::FaultProcess::Params, GLR_FAULT_PARAMS)
GLR_DIGEST_STRUCT(experiment::TrafficSpec, GLR_TRAFFIC_SPEC)
GLR_DIGEST_STRUCT(experiment::MobilitySpec, GLR_MOBILITY_SPEC)
GLR_DIGEST_STRUCT(experiment::ChurnSpec, GLR_CHURN_SPEC)
GLR_DIGEST_STRUCT(experiment::FaultSpec, GLR_FAULT_SPEC)
#undef GLR_DIGEST_STRUCT

/// Bytes per pending-event record: (timeBits, seq) key + descriptor.
constexpr std::size_t kEventRecordBytes = 60;

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

/// The component that fires a saved event, once its record passes every
/// check a restore makes: a known kind whose component the config builds,
/// node ids, indexes and tree flags in range, and an agent kind of the
/// configured protocol. Throws through `d`, naming the defect, so a bad
/// record refuses while restoring, never when it would fire.
sim::EventSink& ownerOf(const sim::EventDesc& desc,
                        const ScenarioComponents& c, const Decoder& d) {
  const auto node = [&](std::int32_t id) {
    if (id < 0 || static_cast<std::size_t>(id) >= c.agents->size()) {
      d.fail("event names node " + std::to_string(id) +
             " outside the population");
    }
    return static_cast<std::size_t>(id);
  };
  // An agent kind that only `protocol`'s agents schedule.
  const auto agent = [&](experiment::Protocol protocol) -> sim::EventSink& {
    routing::DtnAgent& a = *(*c.agents)[node(desc.i0)];
    if (c.cfg->protocol != protocol) {
      d.fail(std::string{"a "} + experiment::protocolName(c.cfg->protocol) +
             " agent schedules no event kind " + std::to_string(desc.kind));
    }
    return a;
  };
  switch (desc.kind) {
    case kChannelTxEnd: {
      mac::Channel& channel = c.world->channel();
      if (desc.u0 >= channel.transmissionsStarted()) {
        d.fail("tx-end event names transmission " + std::to_string(desc.u0) +
               " of " + std::to_string(channel.transmissionsStarted()));
      }
      return channel;
    }
    case kMacAttempt:
    case kMacBackoffExpire:
    case kMacTxEnd:
    case kMacAckTimeout:
    case kMacAckReply:
      return c.world->macOf(static_cast<int>(node(desc.i0)));
    case kHello:
      return *(*c.agents)[node(desc.i0)];
    case kAgentStart:
      d.fail("agent-start event: every agent starts at t = 0, before the "
             "first snapshot");
    case kChurnToggle:
      if (c.churn == nullptr) d.fail("churn event without churn");
      if (desc.u0 >= c.churn->churningNodes()) {
        d.fail("churn toggle event names node index " +
               std::to_string(desc.u0) + " of " +
               std::to_string(c.churn->churningNodes()));
      }
      return *c.churn;
    case kFaultStallEnd:
    case kFaultFlap:
      node(desc.i0);
      [[fallthrough]];
    case kFaultBurstNext:
    case kFaultBurstEnd:
    case kFaultStallNext:
      if (c.faults == nullptr) d.fail("fault event without faults");
      if (desc.kind == kFaultFlap && c.faults->adversary() == nullptr) {
        d.fail("flap event but no adversary model is built");
      }
      return *c.faults;
    case kGlrPeriodicCheck:
    case kGlrQueuedCheck:
      return agent(experiment::Protocol::kGlr);
    case kGlrAckRetry:
    case kGlrCustodyTimer: {
      sim::EventSink& owner = agent(experiment::Protocol::kGlr);
      if (desc.b0 > 3) {
        d.fail("GLR event kind " + std::to_string(desc.kind) +
               " has bad tree flag " + std::to_string(desc.b0));
      }
      return owner;
    }
    case kEpidemicExchange:
      return agent(experiment::Protocol::kEpidemic);
    case kSprayExpiry: {
      sim::EventSink& owner = agent(experiment::Protocol::kSprayAndWait);
      if (c.cfg->messageTtl <= 0.0) {
        d.fail("expiry-sweep event but no TTL is configured");
      }
      return owner;
    }
    case kDirectCheck:
      return agent(experiment::Protocol::kDirectDelivery);
    case kTrafficPaperArrival:
      node(desc.i1);
      return *(*c.agents)[node(desc.i0)];
    case kTrafficArrival:
    case kTrafficSourceToggle:
    case kTrafficSourceArrival:
      if (c.traffic == nullptr) d.fail("traffic event without process");
      if (desc.kind != kTrafficArrival &&
          desc.u0 >= c.traffic->sourceCount()) {
        d.fail("traffic event for bad source " + std::to_string(desc.u0));
      }
      return *c.traffic;
    case kCheckpointTimer:
      if (c.checkpointTimer == nullptr) {
        d.fail("checkpoint-timer event but this run writes no checkpoints");
      }
      return *c.checkpointTimer;
    default:
      d.fail("unknown event kind " + std::to_string(desc.kind));
  }
}

/// A saved event must lie in the snapshot's future: a finite time no
/// earlier than its clock, and a seq its clock already handed out. Throws
/// through `d`, naming the defect, before the kernel sees the key.
void checkEventKey(const sim::EventKey& key, const CheckpointFile& f,
                   const Decoder& d) {
  const double at = sim::Simulator::bitsToTime(key.timeBits);
  if (!std::isfinite(at)) {
    d.fail("event time " + std::to_string(at) + " is not a finite time");
  }
  if (at < f.simNow) {
    d.fail("event time " + std::to_string(at) +
           " is before the snapshot clock " + std::to_string(f.simNow));
  }
  if (key.seq >= f.nextSeq) {
    d.fail("event seq " + std::to_string(key.seq) +
           " is at or past the snapshot's next seq " +
           std::to_string(f.nextSeq));
  }
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

std::uint64_t configDigest(const experiment::ScenarioConfig& v) {
  Encoder e;
  e.u16(1);  // digest schema version
  GLR_SCENARIO_CONFIG(GLR_DIGEST, GLR_SKIP, GLR_DIGEST_RETIRED)
  const std::vector<unsigned char> bytes = e.take();
  return fnv1a64(bytes.data(), bytes.size());
}
#undef GLR_DIGEST
#undef GLR_SKIP
#undef GLR_DIGEST_RETIRED

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

  // Pending events, in exact fire order.
  auto pending = c.sim->pendingEvents();
  Encoder events;
  events.count(pending.size(), kEventRecordBytes);
  for (auto& ev : pending) visitEvent(events, ev);
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
  // (the MAC takes back handles that its restoring visit reset).
  c.sim->clearPending();
  c.sim->restoreClock(f.simNow, f.nextSeq, f.executed);
  c.world->invalidatePositionCache();

  forEachComponentSection(c, [&](std::uint32_t id, auto&& visit) {
    Decoder d = sectionDecoder(f, id, path);
    visit(d);
    d.expectEnd();
  });

  // Pending events last, each scheduled under its exact saved (timeBits,
  // seq) key and descriptor on the component that fires its kind.
  Decoder d = sectionDecoder(f, kSectionEvents, path);
  std::size_t nEvents = 0;
  d.count(nEvents, kEventRecordBytes);
  for (std::size_t i = 0; i < nEvents; ++i) {
    sim::Simulator::PendingEvent ev;
    visitEvent(d, ev);
    checkEventKey(ev.key, f, d);
    const sim::EventHandle handle =
        c.sim->scheduleKeyed(ev.key, ownerOf(ev.desc, c, d), ev.desc);
    // The MAC is the one component that holds handles to its events.
    if (ev.desc.kind >= kMacAttempt && ev.desc.kind <= kMacAckReply) {
      c.world->macOf(ev.desc.i0).adoptHandle(ev.desc, handle);
    }
  }
  d.expectEnd();
}

}  // namespace glr::ckpt
