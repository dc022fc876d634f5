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
/// when a scenario ends. The field vocabulary follows GLR (the paper's
/// protocol, which defines every one of them); other protocols accumulate
/// into whatever maps naturally and leave the rest zero.
struct ProtocolCounters {
  std::uint64_t dataSent = 0;
  std::uint64_t dataReceived = 0;
  std::uint64_t duplicatesDropped = 0;
  std::uint64_t custodyAcksSent = 0;
  std::uint64_t custodyAcksReceived = 0;
  std::uint64_t cacheTimeouts = 0;
  std::uint64_t txFailures = 0;
  std::uint64_t faceTransitions = 0;
  // Overload-survival counters, common to every protocol: no buffer-full or
  // queue-full path may drop silently.
  std::uint64_t sendRejects = 0;      // sends refused by the MAC queue
  std::uint64_t bufferEvictions = 0;  // storage-pressure evictions
  std::uint64_t custodyRefusals = 0;  // custody NACKs sent under watermark
  // Adversarial-resilience counters (GLR recovery sublayer; zero for other
  // protocols and whenever the recovery knob is off).
  std::uint64_t suspicionsRaised = 0;     // fresh suspect verdicts
  std::uint64_t suspectSkips = 0;         // candidate hops skipped as suspect
  std::uint64_t recoveryActivations = 0;  // per-copy spray fallbacks entered
  std::uint64_t recoverySprays = 0;       // custody-free clones sent
  // TTL expiry is a counted drop for every protocol (zero without a TTL).
  std::uint64_t expiredDrops = 0;
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
