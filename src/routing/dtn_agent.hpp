#pragma once
/// \file dtn_agent.hpp
/// Common interface for DTN routing agents (GLR, epidemic, baselines), so
/// the experiment harness can drive any protocol uniformly.

#include <cstddef>
#include <cstdint>

#include "net/world.hpp"

namespace glr::ckpt {
class Encoder;  // checkpoint/codec.hpp
class Decoder;
}

namespace glr::routing {

/// Protocol counters a routing agent can export to the experiment harness
/// when a scenario ends, one X(field, resultField) entry each: `field` is
/// the ProtocolCounters member, `resultField` the experiment::ScenarioResult
/// member it is summed into over every agent. The result struct, its
/// comparator, the end-of-run harvest and the per-node export columns are
/// all generated from this list, so adding a counter is one entry here plus
/// the producing agent's harvestCounters line. The vocabulary follows GLR
/// (the paper's protocol, which defines every one of them); other protocols
/// accumulate into whatever maps naturally and leave the rest zero.
#define GLR_PROTOCOL_COUNTERS(X)                                            \
  X(dataSent, glrDataSent)                                                  \
  X(dataReceived, glrDataReceived)                                          \
  X(duplicatesDropped, glrDuplicatesDropped)                                \
  X(custodyAcksSent, glrCustodyAcksSent)                                    \
  X(custodyAcksReceived, glrCustodyAcksReceived)                            \
  X(cacheTimeouts, glrCacheTimeouts)                                        \
  X(txFailures, glrTxFailures)                                              \
  X(faceTransitions, glrFaceTransitions)                                    \
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
  /// Re-creates one pending simulator event this agent owns, under its
  /// original key. `desc` is the descriptor recorded at schedule time (see
  /// checkpoint/event_kinds.hpp); agents throw on kinds they don't own.
  virtual void restoreEvent(const sim::EventKey& key,
                            const sim::EventDesc& desc);
};

}  // namespace glr::routing
