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

#include <array>
#include <cstdint>
#include <functional>
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

class Mac {
 public:
  /// (packet, srcMacId) for every successfully received DATA frame.
  using ReceiveCallback = std::function<void(const net::Packet&, int)>;
  /// (packet, dstMacId, success) after a unicast completes or is dropped.
  using TxStatusCallback = std::function<void(const net::Packet&, int, bool)>;

  Mac(sim::Simulator& sim, Channel& channel, int self, MacParams params,
      sim::Rng rng);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  [[nodiscard]] int id() const { return self_; }

  void setReceiveCallback(ReceiveCallback cb) { onReceive_ = std::move(cb); }
  void setTxStatusCallback(TxStatusCallback cb) { onTxStatus_ = std::move(cb); }

  /// Queues `packet` for transmission to `dstMac` (net::kBroadcast for
  /// broadcast). Returns false if the interface queue is full (drop-tail).
  bool send(net::Packet packet, int dstMac);

  [[nodiscard]] std::size_t queueLength() const { return queue_.size(); }
  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] const MacParams& params() const { return params_; }

  /// Channel-facing: frame arrived intact at this node.
  void onFrameReceived(const Frame& frame);
  /// Channel-facing: true if this MAC was transmitting during [start, end].
  [[nodiscard]] bool transmittedDuring(sim::SimTime start,
                                       sim::SimTime end) const;

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
  /// airtime — the receive-side mirror of transmittedDuring.
  [[nodiscard]] bool radioUpSince(sim::SimTime start) const {
    return radioUp_ && upSince_ <= start;
  }

  /// Checkpoint support: interface queue (packets by content), contention/
  /// ACK state machine flags, radio gate + epoch, recent-tx ring, duplicate
  /// table, RNG stream and counters. Event handles are rebuilt by the
  /// restore*Event methods below, not serialized.
  template <class Ar>
  void visit(Ar& ar);

  /// Restore-path event rebuilders (see checkpoint/event_kinds.hpp). The
  /// attempt/backoff/ack-timeout variants re-arm the matching cancellation
  /// handle so a later radio-down flush can still cancel them.
  void restoreAttemptEvent(const sim::EventKey& key);
  void restoreBackoffEvent(const sim::EventKey& key);
  void restoreTxEndEvent(const sim::EventKey& key, bool expectAck,
                         std::uint64_t epoch);
  void restoreAckTimeoutEvent(const sim::EventKey& key);
  void restoreAckReplyEvent(const sim::EventKey& key, int dst,
                            std::uint64_t seq, double ackDur,
                            std::uint64_t epoch);

 private:
  struct Outgoing {
    net::Packet packet;
    int dst = net::kBroadcast;
    int attempts = 0;
    std::uint64_t seq = 0;
  };

  void recordOwnTx(sim::SimTime start, sim::SimTime end) {
    recentTx_[recentTxNext_] = {start, end};
    recentTxNext_ = (recentTxNext_ + 1) % recentTx_.size();
    if (recentTxCount_ < recentTx_.size()) ++recentTxCount_;
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
  MacParams params_;
  sim::Rng rng_;

  // Grow-only ring (no per-block allocator churn as the FIFO slides).
  sim::RingDeque<Outgoing> queue_;
  bool attemptScheduled_ = false;
  bool transmitting_ = false;
  bool awaitingAck_ = false;
  bool radioUp_ = true;
  sim::SimTime upSince_ = 0.0;  // when the radio last turned (or started) on
  // Bumped on every up/down transition; in-flight tx-end and ACK-reply
  // events compare their captured epoch so a toggle mid-frame can never
  // attach a stale completion to a newer queue head.
  std::uint64_t radioEpoch_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t awaitedSeq_ = 0;
  sim::EventHandle attemptHandle_;
  sim::EventHandle ackTimeoutHandle_;
  sim::SimTime lastTxStart_ = -1.0;
  sim::SimTime lastTxEnd_ = -1.0;
  // Own recent transmissions (DATA + ACK), for rx-while-tx decisions: a
  // fixed 16-slot ring (the old bounded deque, without its block churn).
  std::array<std::pair<sim::SimTime, sim::SimTime>, 16> recentTx_{};
  std::size_t recentTxCount_ = 0;  // valid entries (caps at 16)
  std::size_t recentTxNext_ = 0;   // slot the next record overwrites

  // Duplicate detection: last sequence number seen per source.
  std::vector<std::pair<int, std::uint64_t>> lastSeqFrom_;

  ReceiveCallback onReceive_;
  TxStatusCallback onTxStatus_;
  MacStats stats_;
};

}  // namespace glr::mac
