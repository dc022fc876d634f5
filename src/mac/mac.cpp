#include "mac/mac.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/payload_codec.hpp"

namespace glr::mac {

namespace {

sim::EventDesc macDesc(ckpt::EventKind kind, int self) {
  sim::EventDesc d;
  d.kind = kind;
  d.i0 = self;
  return d;
}

}  // namespace

Mac::Mac(sim::Simulator& sim, Channel& channel, int self, MacParams params,
         sim::Rng rng)
    : sim_(sim), channel_(channel), self_(self), params_(params), rng_(rng) {
  if (self < 0) throw std::invalid_argument{"Mac: negative node id"};
  channel_.attach(this);
}

double Mac::frameDuration(std::size_t bytes) const {
  return params_.phyOverhead +
         static_cast<double>(bytes) * 8.0 / params_.bitRateBps;
}

int Mac::contentionWindow(int attempts) const {
  long cw = params_.cwMin;
  for (int i = 0; i < attempts; ++i) {
    cw = std::min<long>(2 * (cw + 1) - 1, params_.cwMax);
  }
  return static_cast<int>(cw);
}

bool Mac::send(net::Packet packet, int dstMac) {
  if (!radioUp_) {
    ++stats_.radioDownDrops;
    return false;
  }
  if (queue_.size() >= params_.queueLimit) {
    ++stats_.queueDrops;
    return false;
  }
  ++stats_.enqueued;
  Outgoing out;
  out.packet = std::move(packet);
  out.dst = dstMac;
  out.seq = nextSeq_++;
  queue_.push_back(std::move(out));
  scheduleAttempt();
  return true;
}

void Mac::scheduleAttempt() {
  if (!radioUp_ || attemptScheduled_ || transmitting_ || awaitingAck_ ||
      queue_.empty()) {
    return;
  }
  attemptScheduled_ = true;
  attemptHandle_ = sim_.schedule(0.0, macDesc(ckpt::kMacAttempt, self_),
                                 [this] { attempt(); });
}

void Mac::attempt() {
  if (!radioUp_ || transmitting_ || awaitingAck_ || queue_.empty()) {
    attemptScheduled_ = false;
    return;
  }
  if (channel_.mediumBusy(self_)) {
    // Defer until the heard transmissions end, plus sub-slot jitter so
    // synchronized waiters don't re-collide deterministically.
    ++stats_.busyDeferrals;
    const sim::SimTime idleAt =
        std::max(channel_.nextIdleHint(self_), sim_.now());
    attemptHandle_ = sim_.scheduleAt(
        idleAt + rng_.uniform(0.0, params_.slotTime),
        macDesc(ckpt::kMacAttempt, self_), [this] { attempt(); });
    return;
  }
  const int cw = contentionWindow(queue_.front().attempts);
  const double backoff =
      static_cast<double>(rng_.below(static_cast<std::uint64_t>(cw) + 1)) *
      params_.slotTime;
  attemptHandle_ =
      sim_.schedule(params_.difs + backoff,
                    macDesc(ckpt::kMacBackoffExpire, self_),
                    [this] { onBackoffExpire(); });
}

void Mac::onBackoffExpire() {
  if (!radioUp_ || queue_.empty()) {
    attemptScheduled_ = false;
    return;
  }
  if (channel_.mediumBusy(self_)) {
    attempt();  // medium got busy during backoff: defer again
    return;
  }
  transmitHead();
}

void Mac::transmitHead() {
  attemptScheduled_ = false;
  Outgoing& out = queue_.front();
  const bool broadcast = out.dst == net::kBroadcast;

  Frame frame;
  frame.type = Frame::Type::kData;
  frame.src = self_;
  frame.dst = out.dst;
  frame.seq = out.seq;
  frame.bytes = out.packet.bytes + params_.macHeaderBytes;
  frame.packet = out.packet;

  const double duration = frameDuration(frame.bytes);
  transmitting_ = true;
  lastTxStart_ = sim_.now();
  lastTxEnd_ = sim_.now() + duration;
  recordOwnTx(lastTxStart_, lastTxEnd_);
  ++stats_.dataTx;
  if (out.attempts > 0) ++stats_.retries;

  channel_.startTransmission(self_, std::move(frame), duration);
  sim::EventDesc desc = macDesc(ckpt::kMacTxEnd, self_);
  desc.b0 = broadcast ? 0 : 1;  // expectAck
  desc.u0 = radioEpoch_;
  sim_.schedule(duration, desc, [this, broadcast, epoch = radioEpoch_] {
    onDataTxEnd(!broadcast, epoch);
  });
}

void Mac::onDataTxEnd(bool expectAck, std::uint64_t epoch) {
  transmitting_ = false;
  if (epoch != radioEpoch_) {
    // Radio toggled mid-frame: that head was flushed. If we are back up
    // with newly queued traffic, restart contention for it.
    scheduleAttempt();
    return;
  }
  if (!expectAck) {
    finishHead(true);
    return;
  }
  awaitingAck_ = true;
  awaitedSeq_ = queue_.front().seq;
  const double ackTimeout = params_.sifs + frameDuration(params_.ackBytes) +
                            2.0 * params_.slotTime + 20e-6;
  ackTimeoutHandle_ =
      sim_.schedule(ackTimeout, macDesc(ckpt::kMacAckTimeout, self_),
                    [this] { onAckTimeout(); });
}

void Mac::onAckTimeout() {
  awaitingAck_ = false;
  if (queue_.empty()) return;  // defensive: down-flush cancels this timer
  ++stats_.ackTimeouts;
  Outgoing& out = queue_.front();
  ++out.attempts;
  if (out.attempts > params_.retryLimit) {
    ++stats_.retryDrops;
    finishHead(false);
    return;
  }
  scheduleAttempt();
}

void Mac::finishHead(bool success) {
  Outgoing out = std::move(queue_.front());
  queue_.pop_front();
  if (onTxStatus_ && out.dst != net::kBroadcast) {
    onTxStatus_(out.packet, out.dst, success);
  }
  scheduleAttempt();
}

void Mac::setRadioUp(bool up) {
  if (up == radioUp_) return;
  radioUp_ = up;
  ++radioEpoch_;
  if (up) {
    upSince_ = sim_.now();
    scheduleAttempt();  // queue is empty after a down-flush; harmless
    return;
  }
  // Going down: cancel pending contention/ACK timers and flush the queue.
  // The head may be mid-air — the channel finishes that frame (it left the
  // antenna), but this MAC forgets it: the epoch guard neutralizes the
  // pending tx-end event and the unicast fails below.
  attemptHandle_.cancel();
  attemptScheduled_ = false;
  ackTimeoutHandle_.cancel();
  awaitingAck_ = false;
  while (!queue_.empty()) {
    Outgoing out = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.radioDownDrops;
    if (onTxStatus_ && out.dst != net::kBroadcast) {
      onTxStatus_(out.packet, out.dst, false);
    }
  }
}

void Mac::onFrameReceived(const Frame& frame) {
  if (!radioUp_) return;  // duty-cycled off: the radio hears nothing
  if (frame.type == Frame::Type::kAck) {
    if (awaitingAck_ && frame.dst == self_ && frame.seq == awaitedSeq_) {
      ++stats_.rxAck;
      ackTimeoutHandle_.cancel();
      awaitingAck_ = false;
      finishHead(true);
    }
    return;
  }

  // DATA frame.
  const bool unicastToMe = frame.dst == self_;
  if (unicastToMe) {
    // Reply with an ACK after SIFS (ACKs skip contention by design). The
    // lambda captures only the scalars and builds the Frame when it fires so
    // the closure stays inside the kernel's inline-callback budget.
    const double ackDur = frameDuration(params_.ackBytes);
    sim::EventDesc desc = macDesc(ckpt::kMacAckReply, self_);
    desc.i1 = frame.src;
    desc.u0 = frame.seq;
    desc.u1 = radioEpoch_;
    desc.f0 = ackDur;
    sim_.schedule(params_.sifs, desc,
                  [this, dst = frame.src, seq = frame.seq, ackDur,
                   epoch = radioEpoch_] {
                    sendAckReply(dst, seq, ackDur, epoch);
                  });
  } else if (frame.dst != net::kBroadcast) {
    return;  // unicast for someone else
  }

  // Suppress retry-duplicates: the sender repeats a frame when our ACK was
  // lost; the upper layer must see the packet only once.
  for (auto& [src, seq] : lastSeqFrom_) {
    if (src == frame.src) {
      if (seq == frame.seq && unicastToMe) {
        ++stats_.duplicatesSuppressed;
        return;
      }
      seq = frame.seq;
      ++stats_.rxData;
      if (onReceive_) onReceive_(frame.packet, frame.src);
      return;
    }
  }
  lastSeqFrom_.emplace_back(frame.src, frame.seq);
  ++stats_.rxData;
  if (onReceive_) onReceive_(frame.packet, frame.src);
}

bool Mac::transmittedDuring(sim::SimTime start, sim::SimTime end) const {
  for (std::size_t i = 0; i < recentTxCount_; ++i) {
    const auto& [s, e] = recentTx_[i];
    if (s <= end && start < e) return true;
  }
  return false;
}

void Mac::sendAckReply(int dst, std::uint64_t seq, double ackDur,
                       std::uint64_t epoch) {
  if (epoch != radioEpoch_) return;  // radio toggled during SIFS
  Frame ack;
  ack.type = Frame::Type::kAck;
  ack.src = self_;
  ack.dst = dst;
  ack.seq = seq;
  ack.bytes = params_.ackBytes;
  recordOwnTx(sim_.now(), sim_.now() + ackDur);
  ++stats_.ackTx;
  channel_.startTransmission(self_, std::move(ack), ackDur);
}

template <class Ar>
void Mac::visit(Ar& ar) {
  ar.rng(rng_);
  ar.sequence(queue_, 17, [&](Outgoing& out) {
    ckpt::visit(ar, out.packet);
    ar.i32(out.dst);
    ar.i32(out.attempts);
    ar.u64(out.seq);
  });
  ar.boolean(attemptScheduled_);
  ar.boolean(transmitting_);
  ar.boolean(awaitingAck_);
  ar.boolean(radioUp_);
  ar.f64(upSince_);
  ar.u64(radioEpoch_);
  ar.u64(nextSeq_);
  ar.u64(awaitedSeq_);
  ar.f64(lastTxStart_);
  ar.f64(lastTxEnd_);
  ar.u64(recentTxCount_);
  ar.u64(recentTxNext_);
  if constexpr (Ar::kLoading) {
    if (recentTxCount_ > recentTx_.size() ||
        recentTxNext_ >= recentTx_.size()) {
      ar.fail("recent-tx ring cursor out of range");
    }
  }
  for (auto& [start, end] : recentTx_) {
    ar.f64(start);
    ar.f64(end);
  }
  ar.sequence(lastSeqFrom_, 12, [&](std::pair<int, std::uint64_t>& seen) {
    ar.i32(seen.first);
    ar.u64(seen.second);
  });
  ar.u64(stats_.enqueued);
  ar.u64(stats_.queueDrops);
  ar.u64(stats_.dataTx);
  ar.u64(stats_.ackTx);
  ar.u64(stats_.retries);
  ar.u64(stats_.retryDrops);
  ar.u64(stats_.ackTimeouts);
  ar.u64(stats_.busyDeferrals);
  ar.u64(stats_.rxData);
  ar.u64(stats_.rxAck);
  ar.u64(stats_.duplicatesSuppressed);
  ar.u64(stats_.radioDownDrops);
  if constexpr (Ar::kLoading) {
    // Stale handles from the pre-restore life of this object must not be
    // able to cancel the rebuilt events.
    attemptHandle_ = {};
    ackTimeoutHandle_ = {};
  }
}

template void Mac::visit(ckpt::Encoder&);
template void Mac::visit(ckpt::Decoder&);

void Mac::restoreAttemptEvent(const sim::EventKey& key) {
  attemptHandle_ = sim_.scheduleKeyed(key, macDesc(ckpt::kMacAttempt, self_),
                                      [this] { attempt(); });
}

void Mac::restoreBackoffEvent(const sim::EventKey& key) {
  attemptHandle_ =
      sim_.scheduleKeyed(key, macDesc(ckpt::kMacBackoffExpire, self_),
                         [this] { onBackoffExpire(); });
}

void Mac::restoreTxEndEvent(const sim::EventKey& key, bool expectAck,
                            std::uint64_t epoch) {
  sim::EventDesc desc = macDesc(ckpt::kMacTxEnd, self_);
  desc.b0 = expectAck ? 1 : 0;
  desc.u0 = epoch;
  sim_.scheduleKeyed(key, desc, [this, expectAck, epoch] {
    onDataTxEnd(expectAck, epoch);
  });
}

void Mac::restoreAckTimeoutEvent(const sim::EventKey& key) {
  ackTimeoutHandle_ =
      sim_.scheduleKeyed(key, macDesc(ckpt::kMacAckTimeout, self_),
                         [this] { onAckTimeout(); });
}

void Mac::restoreAckReplyEvent(const sim::EventKey& key, int dst,
                               std::uint64_t seq, double ackDur,
                               std::uint64_t epoch) {
  sim::EventDesc desc = macDesc(ckpt::kMacAckReply, self_);
  desc.i1 = dst;
  desc.u0 = seq;
  desc.u1 = epoch;
  desc.f0 = ackDur;
  sim_.scheduleKeyed(key, desc, [this, dst, seq, ackDur, epoch] {
    sendAckReply(dst, seq, ackDur, epoch);
  });
}

}  // namespace glr::mac
