#pragma once
/// \file dtn_agent.hpp
/// Common interface for DTN routing agents (GLR, epidemic, baselines), so
/// the experiment harness can drive any protocol uniformly, and AgentBase,
/// the per-node scaffolding all four protocols share.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "dtn/buffer.hpp"
#include "dtn/message.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "sim/rng.hpp"

namespace glr::ckpt {
class Encoder;  // checkpoint/codec.hpp
class Decoder;
}
namespace glr::dtn {
class MetricsCollector;  // dtn/metrics.hpp
}

namespace glr::routing {

/// Protocol counters a routing agent exports to the experiment harness when
/// a scenario ends, one X(field, resultField) entry each: `field` is the
/// ProtocolCounters member an agent increments (through
/// AgentBase::tally()), `resultField` the experiment::ScenarioResult member
/// it is summed into over every agent. The result struct, its comparator,
/// the agents' harvest and checkpoint visit, the end-of-run harvest and the
/// per-node export columns are all generated from this list, so adding a
/// counter is one entry here plus its increment. The vocabulary follows GLR
/// (the paper's protocol, which defines every one of them); other protocols
/// increment whatever maps naturally and leave the rest zero.
#define GLR_PROTOCOL_COUNTERS(X)                                            \
  X(dataSent, glrDataSent)                                                  \
  X(dataReceived, glrDataReceived)                                          \
  X(duplicatesDropped, glrDuplicatesDropped)                                \
  X(custodyAcksSent, glrCustodyAcksSent)                                    \
  X(custodyAcksReceived, glrCustodyAcksReceived)                            \
  X(cacheTimeouts, glrCacheTimeouts)                                        \
  X(txFailures, glrTxFailures)                                              \
  X(faceTransitions, glrFaceTransitions)                                    \
  /* Stale destination locations re-aimed at a nearby random point.      */ \
  X(perturbations, perturbations)                                           \
  /* Overload survival, every protocol: no full buffer or queue drops    */ \
  /* silently. Refusals are custody NACKs sent under the watermark.      */ \
  X(sendRejects, sendRejects)                                               \
  X(bufferEvictions, bufferEvictions)                                       \
  X(custodyRefusals, custodyRefusals)                                       \
  /* GLR recovery sublayer: fresh suspect verdicts, candidate hops       */ \
  /* skipped as suspect, per-copy spray fallbacks entered, custody-free  */ \
  /* clones sent. Zero for other protocols and with the knob off.        */ \
  X(suspicionsRaised, glrSuspicionsRaised)                                  \
  X(suspectSkips, glrSuspectSkips)                                          \
  X(recoveryActivations, glrRecoveryActivations)                            \
  X(recoverySprays, glrRecoverySprays)                                      \
  /* TTL expiry is a counted drop for every protocol (zero without TTL). */ \
  X(expiredDrops, expiredDrops)

struct ProtocolCounters {
#define GLR_DECLARE_COUNTER(field, resultField) std::uint64_t field = 0;
  GLR_PROTOCOL_COUNTERS(GLR_DECLARE_COUNTER)
#undef GLR_DECLARE_COUNTER

  bool operator==(const ProtocolCounters&) const = default;
};

class DtnAgent : public net::Agent {
 public:
  /// Creates and injects a new message destined to `dstNode`.
  virtual void originate(int dstNode) = 0;

  /// Current buffered message count (Store + Cache).
  [[nodiscard]] virtual std::size_t storageUsed() const = 0;

  /// High-water mark of buffered message count.
  [[nodiscard]] virtual std::size_t storagePeak() const = 0;

  /// Accumulates this agent's protocol counters into `out`. The harness
  /// calls it once per agent at harvest time (end of scenario), which keeps
  /// RTTI off the result path and lets each protocol report its own
  /// numbers. Default: contributes nothing.
  virtual void harvestCounters(ProtocolCounters& out) const {
    static_cast<void>(out);
  }

  /// Checkpoint support: a protocol lists its state once, in a private
  /// `template <class Ar> void visitState(Ar&)`, and routes both archives
  /// to it (see checkpoint/codec.hpp). The defaults throw: a protocol that
  /// cannot serialize itself fails loudly at the first snapshot instead of
  /// silently producing checkpoints missing its state. (Kept non-pure so
  /// test stubs that never checkpoint don't have to implement them.)
  virtual void visit(ckpt::Encoder& ar);
  virtual void visit(ckpt::Decoder& ar);

  /// Fires a paper-schedule origination (kTrafficPaperArrival, i1: the
  /// destination) and passes every other kind to net::Agent.
  void onEvent(const sim::EventDesc& desc) override;
};

/// What every routing protocol here keeps per node, written once: the hello
/// service (whose owner it is), the message buffer, the ids delivered here,
/// the next message sequence number and one ProtocolCounters block that
/// each protocol increments through tally(). A protocol derives from it and
/// keeps only its own parameters, state, events and logic; it hears of new
/// contacts and hello location samples by overriding the Owner hooks.
class AgentBase : public DtnAgent, public net::NeighborService::Owner {
 public:
  /// A radio going down forgets every neighbor (stale on wake anyway).
  void onRadioState(bool up) override {
    if (!up) neighbors_.reset();
  }

  [[nodiscard]] std::size_t storageUsed() const override {
    return buffer_.size();
  }
  [[nodiscard]] std::size_t storagePeak() const override {
    return buffer_.peakSize();
  }

  /// Every listed counter, plus hello send failures (as sendRejects) and the
  /// buffer's evictions and TTL expiries.
  void harvestCounters(ProtocolCounters& out) const override;

  /// The shared checkpoint state: RNG, hello service, buffer, delivered
  /// set, counters in list order (but for the two the buffer keeps) and the
  /// next sequence number. A protocol
  /// with state of its own overrides both, visits this first, then its own.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  /// Fires a hello beacon restored from a checkpoint (kHello) on the hello
  /// service and passes every other kind to DtnAgent. A protocol with
  /// events of its own overrides this and hands back every kind it does
  /// not own.
  void onEvent(const sim::EventDesc& desc) override;

  /// This agent's counters (all zero until its first increment).
  [[nodiscard]] const ProtocolCounters& counters() const {
    static constexpr ProtocolCounters kNone{};
    return counters_ != nullptr ? *counters_ : kNone;
  }
  [[nodiscard]] const dtn::MessageBuffer& buffer() const { return buffer_; }

 protected:
  /// `hello` is the population's shared hello parameter block (usually an
  /// aliasing pointer into the protocol's own shared parameters).
  AgentBase(net::World& world, int self, dtn::MetricsCollector* metrics,
            sim::Rng rng,
            std::shared_ptr<const net::NeighborService::Params> hello,
            std::size_t storageLimit, std::size_t expectedBufferedCopies);

  /// Stamps this node's position on its hellos.
  geom::Point2 helloPosition() override { return myPos(); }

  /// True if message `id` was delivered here.
  [[nodiscard]] bool deliveredHere(const dtn::MessageId& id) const {
    return deliveredHere_ != nullptr && deliveredHere_->contains(id);
  }

  /// A new message from this node to `dstNode` with the next id, created
  /// now, expiring `ttl` seconds later (never when `ttl` <= 0), already
  /// reported to the metrics collector as created.
  [[nodiscard]] dtn::Message newMessage(int dstNode, std::size_t payloadBytes,
                                        double ttl);

  /// Reports `m` delivered here after `hops` hops, unless it already was.
  void deliverHere(const dtn::Message& m, int hops);

  [[nodiscard]] geom::Point2 myPos() { return world_.positionOf(self_); }

  /// The counter block to increment, built at its first use.
  [[nodiscard]] ProtocolCounters& tally() {
    if (counters_ == nullptr) counters_ = std::make_unique<ProtocolCounters>();
    return *counters_;
  }

  net::World& world_;
  int self_;
  int nextSeq_ = 0;
  dtn::MetricsCollector* metrics_;
  sim::Rng rng_;
  net::NeighborService neighbors_;
  dtn::MessageBuffer buffer_;

 private:
  /// Ids delivered here; built at the first delivery, as most nodes of a
  /// large world are never a destination.
  std::unique_ptr<std::unordered_set<dtn::MessageId>> deliveredHere_;
  /// Built at the first increment, as most relays of a large world never
  /// count anything (see tally()).
  std::unique_ptr<ProtocolCounters> counters_;

  template <class Ar>
  void visitState(Ar& ar);
};

}  // namespace glr::routing
