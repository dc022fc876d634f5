#pragma once
/// \file event_kinds.hpp
/// Descriptor vocabulary for pending simulator events.
///
/// Every event of a scenario is a sim::EventDesc addressed to the
/// component that handles it: the kind names the event, the b/i/u/f fields
/// carry its arguments (which field holds what is documented per kind
/// below), and firing calls that component's onEvent with the descriptor.
/// A checkpoint saves each pending event as its (time, seq) key and
/// descriptor; at restore, scenario_checkpoint.cpp checks each record and
/// schedules it, under the exact original key, on the component that owns
/// its kind. Values are part of the on-disk checkpoint format — append
/// only, never renumber.

#include <cstdint>

namespace glr::ckpt {

enum EventKind : std::uint16_t {
  kNone = 0,  // no scenario event has it; restore refuses it as unknown

  // mac/channel.cpp — i0: unused; u0: txId.
  kChannelTxEnd = 1,

  // mac/mac.cpp — i0: self node id throughout.
  kMacAttempt = 2,        // queued attempt (immediate or deferred)
  kMacBackoffExpire = 3,  // backoff slot countdown finished
  kMacTxEnd = 4,          // b0: expectAck; u0: radio epoch
  kMacAckTimeout = 5,     // ACK wait expired
  kMacAckReply = 6,       // i1: dst; u0: data seq; u1: radio epoch; f0: dur

  // net/neighbor.cpp — i0: self node id.
  kHello = 7,

  // net/world.cpp — i0: node id (start() fan-out at t=0). Fires before
  // any snapshot, so restore refuses it as corrupt.
  kAgentStart = 8,

  // net/churn.cpp — u0: churn-node index (not node id).
  kChurnToggle = 9,

  // net/faults.cpp.
  kFaultBurstNext = 10,  // burst arrival chain (draws at fire time)
  kFaultBurstEnd = 11,   // --burstsActive_
  kFaultStallNext = 12,  // stall arrival chain (draws at fire time)
  kFaultStallEnd = 13,   // i0: victim node
  kFaultFlap = 14,       // i0: node; b0: currently up

  // core/glr_agent.cpp — i0: self node id throughout.
  kGlrPeriodicCheck = 15,
  kGlrQueuedCheck = 16,  // contact/originate-triggered deferred checkRoutes
  kGlrAckRetry = 17,     // i1: to; u0: (src<<32)|seq; b0: flag; b1: accepted;
                         // u1: attempt
  kGlrCustodyTimer = 18,  // i1: key src; u0: key seq; b0: flag; f0: sentAt

  // routing/*.cpp — i0: self node id.
  kEpidemicExchange = 19,
  kSprayExpiry = 20,
  kDirectCheck = 21,

  // experiment/traffic.cpp.
  kTrafficPaperArrival = 22,  // i0: src agent; i1: dst (pre-scheduled)
  kTrafficArrival = 23,       // single-chain stochastic models
  kTrafficSourceToggle = 24,  // u0: source index (ON/OFF phase flip)
  kTrafficSourceArrival = 25, // u0: source index; u1: phase epoch

  // experiment/scenario.cpp — the periodic checkpoint writer itself.
  kCheckpointTimer = 26,
};

}  // namespace glr::ckpt
