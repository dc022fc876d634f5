#include "mac/mac.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/payload_codec.hpp"

namespace glr::mac {

Mac::Mac(sim::Simulator& sim, Channel& channel, int self,
         std::shared_ptr<const MacParams> params, sim::Rng rng)
    : sim_(sim),
      channel_(channel),
      self_(self),
      params_(std::move(params)),
      rng_(rng) {
  if (self < 0) throw std::invalid_argument{"Mac: negative node id"};
  if (params_ == nullptr) throw std::invalid_argument{"Mac: params required"};
  channel_.attach(this);
}

Mac::Mac(sim::Simulator& sim, Channel& channel, int self,
         const MacParams& params, sim::Rng rng)
    : Mac(sim, channel, self, std::make_shared<const MacParams>(params), rng) {}

double Mac::frameDuration(std::size_t bytes) const {
  return params_->phyOverhead +
         static_cast<double>(bytes) * 8.0 / params_->bitRateBps;
}

int Mac::contentionWindow(int attempts) const {
  long cw = params_->cwMin;
  for (int i = 0; i < attempts; ++i) {
    cw = std::min<long>(2 * (cw + 1) - 1, params_->cwMax);
  }
  return static_cast<int>(cw);
}

bool Mac::send(net::Packet packet, int dstMac) {
  if (!radioUp_) {
    ++stats_.radioDownDrops;
    return false;
  }
  if (queue_.size() >= params_->queueLimit) {
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
  attemptHandle_ =
      sim_.schedule(0.0, *this, {.kind = ckpt::kMacAttempt, .i0 = self_});
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
    attemptHandle_ =
        sim_.scheduleAt(idleAt + rng_.uniform(0.0, params_->slotTime), *this,
                        {.kind = ckpt::kMacAttempt, .i0 = self_});
    return;
  }
  const int cw = contentionWindow(queue_.front().attempts);
  const double backoff =
      static_cast<double>(rng_.below(static_cast<std::uint64_t>(cw) + 1)) *
      params_->slotTime;
  attemptHandle_ =
      sim_.schedule(params_->difs + backoff, *this,
                    {.kind = ckpt::kMacBackoffExpire, .i0 = self_});
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
  frame.bytes = out.packet.bytes + params_->macHeaderBytes;
  frame.packet = out.packet;

  const double duration = frameDuration(frame.bytes);
  transmitting_ = true;
  recordOwnTx(duration);
  ++stats_.dataTx;
  if (out.attempts > 0) ++stats_.retries;

  channel_.startTransmission(self_, std::move(frame), duration);
  sim_.schedule(duration, *this,
                {.kind = ckpt::kMacTxEnd,
                 .b0 = static_cast<std::uint8_t>(!broadcast),  // expectAck
                 .i0 = self_,
                 .u0 = radioEpoch_});
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
  const double ackTimeout = params_->sifs + frameDuration(params_->ackBytes) +
                            2.0 * params_->slotTime + 20e-6;
  ackTimeoutHandle_ = sim_.schedule(
      ackTimeout, *this, {.kind = ckpt::kMacAckTimeout, .i0 = self_});
}

void Mac::onAckTimeout() {
  awaitingAck_ = false;
  if (queue_.empty()) return;  // defensive: down-flush cancels this timer
  ++stats_.ackTimeouts;
  Outgoing& out = queue_.front();
  ++out.attempts;
  if (out.attempts > params_->retryLimit) {
    ++stats_.retryDrops;
    finishHead(false);
    return;
  }
  scheduleAttempt();
}

void Mac::finishHead(bool success) {
  Outgoing out = std::move(queue_.front());
  queue_.pop_front();
  if (client_ != nullptr && out.dst != net::kBroadcast) {
    client_->onTxStatus(out.packet, out.dst, success);
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
    if (client_ != nullptr && out.dst != net::kBroadcast) {
      client_->onTxStatus(out.packet, out.dst, false);
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
  if (frame.dst == self_) {
    // Reply with an ACK after SIFS (ACKs skip contention by design). The
    // descriptor carries only the scalars; the Frame is built when it fires.
    sim_.schedule(params_->sifs, *this,
                  {.kind = ckpt::kMacAckReply,
                   .i0 = self_,
                   .i1 = frame.src,
                   .u0 = frame.seq,
                   .u1 = radioEpoch_,
                   .f0 = frameDuration(params_->ackBytes)});
    // Suppress retry-duplicates: the sender repeats a unicast when our ACK
    // was lost; the upper layer must see the packet only once. A sender
    // retries only its queue head and every packet has a seq of its own,
    // so a repeat always carries the seq of the last unicast taken from
    // that sender. Broadcasts are never retried and never need an entry.
    const auto seen = std::find_if(
        lastSeqFrom_.begin(), lastSeqFrom_.end(),
        [&](const auto& entry) { return entry.first == frame.src; });
    if (seen == lastSeqFrom_.end()) {
      lastSeqFrom_.emplace_back(frame.src, frame.seq);
    } else if (seen->second == frame.seq) {
      ++stats_.duplicatesSuppressed;
      return;
    } else {
      seen->second = frame.seq;
    }
  } else if (frame.dst != net::kBroadcast) {
    return;  // unicast for someone else
  }
  ++stats_.rxData;
  if (client_ != nullptr) client_->onPacket(frame.packet, frame.src);
}

void Mac::sendAckReply(int dst, std::uint64_t seq, double ackDur,
                       std::uint64_t epoch) {
  if (epoch != radioEpoch_) return;  // radio toggled during SIFS
  Frame ack;
  ack.type = Frame::Type::kAck;
  ack.src = self_;
  ack.dst = dst;
  ack.seq = seq;
  ack.bytes = params_->ackBytes;
  recordOwnTx(ackDur);
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
  ar.f64(txEnd_);
  if constexpr (Ar::kLoading) {
    // -inf: never transmitted. +inf would keep the radio from ever
    // sending or receiving again; NaN would let it decode while on air.
    if (std::isnan(txEnd_) ||
        txEnd_ == std::numeric_limits<double>::infinity()) {
      ar.fail("transmit end is NaN or +inf");
    }
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

void Mac::onEvent(const sim::EventDesc& desc) {
  switch (desc.kind) {
    case ckpt::kMacAttempt:
      attempt();
      return;
    case ckpt::kMacBackoffExpire:
      onBackoffExpire();
      return;
    case ckpt::kMacTxEnd:
      onDataTxEnd(desc.b0 != 0, desc.u0);
      return;
    case ckpt::kMacAckTimeout:
      onAckTimeout();
      return;
    case ckpt::kMacAckReply:
      sendAckReply(desc.i1, desc.u0, desc.f0, desc.u1);
      return;
    default:
      throw std::logic_error{"Mac: not a MAC event kind"};
  }
}

void Mac::adoptHandle(const sim::EventDesc& desc, sim::EventHandle handle) {
  if (desc.kind == ckpt::kMacAckTimeout) {
    ackTimeoutHandle_ = handle;
  } else if (desc.kind == ckpt::kMacAttempt ||
             desc.kind == ckpt::kMacBackoffExpire) {
    attemptHandle_ = handle;
  }
}

}  // namespace glr::mac
