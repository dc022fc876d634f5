#pragma once
/// \file mac.hpp
/// Simplified IEEE 802.11 DCF MAC.
///
/// Models the mechanisms that shape the paper's results at packet
/// granularity: carrier sensing with DIFS + binary-exponential backoff,
/// drop-tail interface queue (the paper's "link layer queue length 150"),
/// unicast DATA/ACK with a retry limit, and broadcast without ACK. Slot
/// freezing is approximated by re-drawing the backoff when the medium turns
/// busy — fairness differs slightly from real DCF but saturation behaviour
/// (collision loss, delay growth under load) is preserved.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "mac/channel.hpp"
#include "mac/frame.hpp"
#include "net/packet.hpp"
#include "sim/ring_deque.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace glr::mac {

struct MacParams {
  double slotTime = 20e-6;      // 802.11 DSSS slot
  double sifs = 10e-6;
  double difs = 50e-6;
  double phyOverhead = 192e-6;  // PLCP preamble + header at 1 Mbps
  int cwMin = 31;
  int cwMax = 1023;
  int retryLimit = 7;
  std::size_t queueLimit = 150;  // paper Table 1
  std::size_t macHeaderBytes = 28;
  std::size_t ackBytes = 14;
  double bitRateBps = 1e6;       // paper Table 1
};

/// Per-MAC counters.
struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t queueDrops = 0;       // drop-tail losses
  std::uint64_t dataTx = 0;           // DATA transmissions incl. retries
  std::uint64_t ackTx = 0;
  std::uint64_t retries = 0;
  std::uint64_t retryDrops = 0;       // unicast given up after retryLimit
  std::uint64_t ackTimeouts = 0;      // ACK waits that expired (per attempt)
  std::uint64_t busyDeferrals = 0;    // attempts deferred: medium sensed busy
  std::uint64_t rxData = 0;
  std::uint64_t rxAck = 0;
  std::uint64_t duplicatesSuppressed = 0;
  std::uint64_t radioDownDrops = 0;   // sends attempted/flushed while down
};

/// The layer above a MAC (a node's routing agent): it is handed every DATA
/// frame the MAC receives and the outcome of every unicast it sent. A MAC
/// keeps one pointer to it, so the client must stay alive while the MAC can
/// still deliver to it.
class MacClient {
 public:
  /// A DATA packet arrived for this node (unicast to it, or broadcast) from
  /// MAC `fromMac`.
  virtual void onPacket(const net::Packet& packet, int fromMac) = 0;
  /// A unicast to `dstMac` completed (`success`: its MAC-level ACK was
  /// seen) or was dropped.
  virtual void onTxStatus(const net::Packet& /*packet*/, int /*dstMac*/,
                          bool /*success*/) {}

 protected:
  MacClient() = default;
  ~MacClient() = default;
};

class Mac : public sim::EventSink {
 public:
  /// `params` is one immutable block the whole population shares.
  Mac(sim::Simulator& sim, Channel& channel, int self,
      std::shared_ptr<const MacParams> params, sim::Rng rng);
  /// Convenience for a lone MAC: wraps `params` into a block of its own.
  Mac(sim::Simulator& sim, Channel& channel, int self,
      const MacParams& params, sim::Rng rng);

  [[nodiscard]] int id() const { return self_; }

  /// The layer that receives this MAC's packets and unicast outcomes (null:
  /// none, and they are dropped).
  void setClient(MacClient* client) { client_ = client; }

  /// Queues `packet` for transmission to `dstMac` (net::kBroadcast for
  /// broadcast). Returns false if the interface queue is full (drop-tail).
  bool send(net::Packet packet, int dstMac);

  [[nodiscard]] std::size_t queueLength() const { return queue_.size(); }
  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] const MacParams& params() const { return *params_; }

  /// Channel-facing: frame arrived intact at this node.
  void onFrameReceived(const Frame& frame);
  /// Channel-facing: true if this MAC was on air (DATA or ACK) at any time
  /// after `t`, i.e. `t` is before the end of its latest transmission. The
  /// channel asks only about intervals that end at the clock, and every
  /// transmission starts at the clock, so this equals "on air at some
  /// point of [t, now]".
  [[nodiscard]] bool transmittedSince(sim::SimTime t) const {
    return t < txEnd_;
  }

  /// Radio duty-cycle gate (node churn). While down the MAC neither
  /// transmits nor receives: send() drops (counted in radioDownDrops), the
  /// channel skips this node as a receiver, pending backoff/ACK timers are
  /// cancelled and the whole interface queue is flushed (unicasts fail via
  /// the tx-status callback — the radio shut down under them). Coming back
  /// up resumes normal operation with an empty queue.
  void setRadioUp(bool up);
  [[nodiscard]] bool radioUp() const { return radioUp_; }
  /// Channel-facing: true if the radio has been continuously up since
  /// `start`. A frame is received only when the radio was on for its whole
  /// airtime — the receive-side mirror of transmittedSince.
  [[nodiscard]] bool radioUpSince(sim::SimTime start) const {
    return radioUp_ && upSince_ <= start;
  }

  /// Checkpoint support: interface queue (packets by content), contention/
  /// ACK state machine flags, radio gate + epoch, the end of the latest own
  /// transmission, duplicate table, RNG stream and counters. Event handles
  /// are not serialized: the restore takes them back through adoptHandle
  /// below.
  template <class Ar>
  void visit(Ar& ar);

  /// Fires one MAC event (kMacAttempt..kMacAckReply, see
  /// checkpoint/event_kinds.hpp).
  void onEvent(const sim::EventDesc& desc) override;

  /// Restore support: takes back the handle of a re-created attempt,
  /// backoff or ACK-timeout event, so a later radio-down flush can still
  /// cancel it. The other kinds hold no handle.
  void adoptHandle(const sim::EventDesc& desc, sim::EventHandle handle);

 private:
  struct Outgoing {
    net::Packet packet;
    int dst = net::kBroadcast;
    int attempts = 0;
    std::uint64_t seq = 0;
  };

  /// A transmission of `duration` seconds starts now.
  void recordOwnTx(double duration) {
    txEnd_ = std::max(txEnd_, sim_.now() + duration);
  }

  void scheduleAttempt();
  void attempt();
  /// Backoff countdown finished: transmit if the medium stayed idle.
  void onBackoffExpire();
  /// SIFS elapsed after a unicast DATA reception: put the ACK on air.
  void sendAckReply(int dst, std::uint64_t seq, double ackDur,
                    std::uint64_t epoch);
  void transmitHead();
  void onDataTxEnd(bool expectAck, std::uint64_t epoch);
  void onAckTimeout();
  void finishHead(bool success);
  [[nodiscard]] double frameDuration(std::size_t bytes) const;
  [[nodiscard]] int contentionWindow(int attempts) const;

  sim::Simulator& sim_;
  Channel& channel_;
  int self_;
  std::shared_ptr<const MacParams> params_;
  sim::Rng rng_;

  // Grow-only ring (no per-block allocator churn as the FIFO slides).
  sim::RingDeque<Outgoing> queue_;
  bool attemptScheduled_ = false;
  bool transmitting_ = false;
  bool awaitingAck_ = false;
  // The channel reads these three for every candidate receiver of a frame.
  bool radioUp_ = true;
  sim::SimTime upSince_ = 0.0;  // when the radio last turned (or started) on
  // The latest end of an own transmission, DATA or ACK (-inf before the
  // first), for rx-while-tx decisions.
  sim::SimTime txEnd_ = -std::numeric_limits<double>::infinity();
  // Bumped on every up/down transition; in-flight tx-end and ACK-reply
  // events compare their captured epoch so a toggle mid-frame can never
  // attach a stale completion to a newer queue head.
  std::uint64_t radioEpoch_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t awaitedSeq_ = 0;
  sim::EventHandle attemptHandle_;
  sim::EventHandle ackTimeoutHandle_;

  // Duplicate detection: the seq of the last unicast to this node, per
  // sender. Only unicast senders get an entry (broadcasts are never
  // retried), so a node that only hears hellos never allocates the table.
  std::vector<std::pair<int, std::uint64_t>> lastSeqFrom_;

  MacClient* client_ = nullptr;
  MacStats stats_;
};

}  // namespace glr::mac
