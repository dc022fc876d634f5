#include "mac/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/payload_codec.hpp"
#include "mac/mac.hpp"

namespace glr::mac {

namespace {

sim::EventDesc txEndDesc(std::uint64_t txId) {
  sim::EventDesc d;
  d.kind = ckpt::kChannelTxEnd;
  d.u0 = txId;
  return d;
}
/// Power ratio (linear) a signal must have over each interferer to survive
/// a collision (capture effect); 10 == 10 dB.
constexpr double kCaptureRatio = 10.0;
/// How long finished transmissions are kept for interference accounting.
constexpr double kHistoryKeep = 0.05;  // seconds; >> longest frame
}  // namespace

Channel::Channel(sim::Simulator& sim, const phy::PropagationModel& model,
                 phy::RadioThresholds thresholds, double txPowerW,
                 PositionFn positionOf)
    : sim_(sim),
      model_(model),
      thresholds_(thresholds),
      txPowerW_(txPowerW),
      positionOf_(std::move(positionOf)) {
  if (!positionOf_) {
    throw std::invalid_argument{"Channel: positionOf callback required"};
  }
  csMaxRangeShared_ = model_.maxRangeFor(txPowerW_, thresholds_.csThresholdW);
}

void Channel::attach(Mac* mac) {
  if (mac == nullptr) throw std::invalid_argument{"Channel::attach: null"};
  const auto id = static_cast<std::size_t>(mac->id());
  if (macs_.size() <= id) macs_.resize(id + 1, nullptr);
  macs_[id] = mac;
  // A node joined: any receiver-index snapshot is incomplete now.
  indexGrid_.reset();
}

void Channel::enableReceiverIndex(double maxRange, double maxSpeed,
                                  double rebuildInterval, IndexMode mode) {
  if (!(maxRange > 0.0) || !(maxSpeed >= 0.0) || !(rebuildInterval > 0.0)) {
    throw std::invalid_argument{"Channel::enableReceiverIndex: bad params"};
  }
  indexEnabled_ = true;
  indexMode_ = mode;
  // Tiny absolute pad so FP rounding at the exact range boundary can never
  // exclude a node the threshold check would accept.
  indexMaxRange_ = maxRange + 1e-6;
  indexMaxSpeed_ = maxSpeed;
  indexSlack_ = maxSpeed * rebuildInterval;
  indexRebuildInterval_ = rebuildInterval;
  effectiveQueryRange_ = std::max(indexMaxRange_, maxNodeRange_ + 1e-6);
  indexGrid_.reset();
}

void Channel::setNodeTxRange(int nodeId, double range) {
  if (nodeId < 0 || !(range > 0.0)) {
    throw std::invalid_argument{"Channel::setNodeTxRange: bad node/range"};
  }
  // rxPower is linear in transmit power for every PropagationModel we ship,
  // so scaling the shared power by (threshold at `range`) / (actual power
  // at `range`) puts the reception boundary exactly at `range`.
  const double atRange = model_.rxPower(txPowerW_, range);
  if (!(atRange > 0.0)) {
    throw std::invalid_argument{"Channel::setNodeTxRange: range unreachable"};
  }
  const auto id = static_cast<std::size_t>(nodeId);
  if (txPowerOf_.size() <= id) txPowerOf_.resize(id + 1, 0.0);
  txPowerOf_[id] = txPowerW_ * (thresholds_.rxThresholdW / atRange);
  if (csRangeOf_.size() <= id) csRangeOf_.resize(id + 1, 0.0);
  csRangeOf_[id] =
      model_.maxRangeFor(txPowerOf_[id], thresholds_.csThresholdW);
  maxNodeRange_ = std::max(maxNodeRange_, range);
  effectiveQueryRange_ = std::max(indexMaxRange_, maxNodeRange_ + 1e-6);
  indexGrid_.reset();  // candidate queries must widen to the new range
}

double Channel::txPowerFor(int nodeId) const {
  const auto id = static_cast<std::size_t>(nodeId);
  return id < txPowerOf_.size() && txPowerOf_[id] > 0.0 ? txPowerOf_[id]
                                                        : txPowerW_;
}

double Channel::csRangeFor(int nodeId) const {
  const auto id = static_cast<std::size_t>(nodeId);
  return id < csRangeOf_.size() && csRangeOf_[id] > 0.0 ? csRangeOf_[id]
                                                        : csMaxRangeShared_;
}

void Channel::buildIndex(sim::SimTime now) {
  // Bounds from the current positions (sampled in ascending id order, the
  // legacy snapshot's exact sequence). Later drift beyond this box clamps
  // into edge tiles — membership stays exact, only edge occupancy grows.
  geom::Point2 lo{0.0, 0.0};
  geom::Point2 hi{0.0, 0.0};
  refreshIds_.clear();
  refreshPos_.clear();
  for (std::size_t id = 0; id < macs_.size(); ++id) {
    if (macs_[id] == nullptr) continue;
    const geom::Point2 p = positionOf_(static_cast<int>(id));
    if (refreshIds_.empty()) {
      lo = hi = p;
    } else {
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    refreshIds_.push_back(static_cast<int>(id));
    refreshPos_.push_back(p);
  }
  indexGrid_ = std::make_unique<geom::TiledSpatialGrid>(
      lo, hi, effectiveQueryRange_ + indexSlack_, macs_.size());
  for (std::size_t k = 0; k < refreshIds_.size(); ++k) {
    indexGrid_->update(refreshIds_[k], refreshPos_[k], now);
  }
  indexBuiltAt_ = now;
  tileStamp_.assign(static_cast<std::size_t>(indexGrid_->numTiles()), now);
  janitorCursor_ = 0;
  janitorCredit_ = 0.0;
  janitorLastAt_ = now;
  janitorCycleStartAt_ = now;
  indexFloor_ = now;
}

void Channel::refreshAllRecords(sim::SimTime now) {
  for (std::size_t id = 0; id < macs_.size(); ++id) {
    if (macs_[id] == nullptr) continue;
    indexGrid_->update(static_cast<int>(id), positionOf_(static_cast<int>(id)),
                       now);
  }
  indexBuiltAt_ = now;
}

void Channel::refreshTile(int tile, sim::SimTime now) {
  refreshIds_.clear();
  indexGrid_->forEachInTile(tile, [this](int i) { refreshIds_.push_back(i); });
  const std::size_t n = refreshIds_.size();
  if (n > 0) {
    refreshPos_.resize(n);
    gatherPositions(refreshIds_.data(), n, refreshPos_.data());
    for (std::size_t k = 0; k < n; ++k) {
      indexGrid_->update(refreshIds_[k], refreshPos_[k], now);
    }
  }
  tileStamp_[static_cast<std::size_t>(tile)] = now;
}

void Channel::janitorStep(sim::SimTime now) {
  const int numTiles = indexGrid_->numTiles();
  janitorCredit_ +=
      numTiles * (now - janitorLastAt_) / indexRebuildInterval_;
  janitorLastAt_ = now;
  // More than one full sweep owed collapses into one: re-sampling a tile
  // twice at the same instant is pure waste.
  janitorCredit_ = std::min(janitorCredit_, static_cast<double>(numTiles));
  int budget = static_cast<int>(janitorCredit_);
  janitorCredit_ -= budget;
  while (budget-- > 0) {
    if (janitorCursor_ == 0) janitorCycleStartAt_ = now;
    refreshTile(janitorCursor_, now);
    if (++janitorCursor_ == numTiles) {
      janitorCursor_ = 0;
      // Every live record has been re-sampled since the sweep began: a
      // node that moved tiles mid-sweep was re-recorded by the refresh
      // that moved it, so no record predates the sweep's start.
      indexFloor_ = janitorCycleStartAt_;
    }
  }
}

const std::vector<int>& Channel::receiverCandidates(geom::Point2 center) {
  const double queryRange = effectiveQueryRange_;
  const sim::SimTime now = sim_.now();
  if (!indexGrid_) buildIndex(now);
  candidateScratch_.clear();
  if (indexMode_ == IndexMode::kSnapshot) {
    if (now - indexBuiltAt_ > indexRebuildInterval_) refreshAllRecords(now);
    indexGrid_->queryRadius(center, queryRange + indexSlack_,
                            candidateScratch_);
  } else {
    // Keep the staleness floor moving, then freshen the tiles this scan
    // will visit (activity-driven: a region with traffic stays fresh and
    // pays tight pads; idle regions are only touched by the janitor).
    janitorStep(now);
    const double window =
        queryRange + indexMaxSpeed_ * (now - indexFloor_) + 1e-6;
    indexGrid_->forEachTileInRect(
        center.x - window, center.y - window, center.x + window,
        center.y + window, [&](int tile) {
          if (now - tileStamp_[static_cast<std::size_t>(tile)] >
              indexRebuildInterval_) {
            refreshTile(tile, now);
          }
        });
    // Collect with per-record pads. A node in true range R satisfies
    // dist(recorded, center) <= R + maxSpeed * (now - its sample time), so
    // admission on recorded positions keeps every possibly-in-range node;
    // the window above is the same bound taken at the staleness floor.
    // Refreshes relink movers before this pass; a mover relinked out of
    // the window is beyond query range by construction.
    indexGrid_->forEachTileInRect(
        center.x - window, center.y - window, center.x + window,
        center.y + window, [&](int tile) {
          indexGrid_->forEachInTile(tile, [&](int i) {
            const double reach =
                queryRange +
                indexMaxSpeed_ * (now - indexGrid_->sampleTime(i)) + 1e-6;
            if (geom::dist2(indexGrid_->recordedPos(i), center) <=
                reach * reach) {
              candidateScratch_.push_back(i);
            }
          });
        });
  }
  // Ascending ids: receivers are visited in exactly the full-scan order, so
  // enabling the index never reorders simulation events.
  std::sort(candidateScratch_.begin(), candidateScratch_.end());
  return candidateScratch_;
}

void Channel::gatherPositions(const int* ids, std::size_t n,
                              geom::Point2* out) {
  if (positionBatch_) {
    positionBatch_(ids, n, out);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) out[k] = positionOf_(ids[k]);
}

double Channel::powerAt(const ActiveTx& tx, geom::Point2 rxPos) const {
  return model_.rxPower(txPowerFor(tx.sender), geom::dist(tx.senderPos, rxPos));
}

void Channel::startTransmission(int sender, Frame frame, double duration) {
  ActiveTx tx;
  tx.sender = sender;
  tx.frame = std::move(frame);
  tx.start = sim_.now();
  tx.end = sim_.now() + duration;
  tx.maxEndUpTo =
      history_.empty() ? tx.end : std::max(history_.back().maxEndUpTo, tx.end);
  tx.senderPos = positionOf_(sender);
  const std::uint64_t txId = nextTxId_++;
  history_.push_back(std::move(tx));
  ++stats_.framesSent;
  stats_.airTimeSeconds += duration;
  sim_.schedule(duration, txEndDesc(txId),
                [this, txId] { finishTransmission(txId); });
}

bool Channel::mediumBusy(int nodeId) const {
  const auto id = static_cast<std::size_t>(nodeId);
  if (id < macs_.size() && macs_[id] != nullptr &&
      macs_[id]->transmittedDuring(sim_.now(), sim_.now())) {
    return true;
  }
  const geom::Point2 pos = positionOf_(nodeId);
  const sim::SimTime now = sim_.now();
  // Backward over the start-sorted ring; the prefix-max bound proves every
  // earlier entry has ended, so only the genuinely active suffix pays the
  // propagation math.
  for (std::size_t j = history_.size(); j-- > 0;) {
    const ActiveTx& tx = history_[j];
    if (tx.maxEndUpTo <= now) break;
    if (tx.end <= now || tx.sender == nodeId) continue;
    const double cs = csRangeFor(tx.sender);
    if (geom::dist2(tx.senderPos, pos) > cs * cs) continue;
    if (powerAt(tx, pos) >= thresholds_.csThresholdW) return true;
  }
  return false;
}

sim::SimTime Channel::nextIdleHint(int nodeId) const {
  const geom::Point2 pos = positionOf_(nodeId);
  sim::SimTime t = sim_.now();
  const sim::SimTime now = sim_.now();
  for (std::size_t j = history_.size(); j-- > 0;) {
    const ActiveTx& tx = history_[j];
    if (tx.maxEndUpTo <= now) break;
    if (tx.end <= now || tx.sender == nodeId) continue;
    const double cs = csRangeFor(tx.sender);
    if (geom::dist2(tx.senderPos, pos) > cs * cs) continue;
    if (powerAt(tx, pos) >= thresholds_.csThresholdW) t = std::max(t, tx.end);
  }
  return t;
}

void Channel::finishTransmission(std::uint64_t txId) {
  if (txId < historyBaseId_) return;  // already pruned (should not happen)
  // Copy the transmission's fields out of the ring up front: the delivery
  // loop below runs arbitrary agent code, and unlike the std::deque this
  // ring replaced, RingDeque growth invalidates references — a callback
  // that (now or in some future protocol) transmits synchronously must not
  // leave these dangling. The Frame copy is refcount + SSO work only.
  const int sender = history_[txId - historyBaseId_].sender;
  const sim::SimTime txStart = history_[txId - historyBaseId_].start;
  const sim::SimTime txEnd = history_[txId - historyBaseId_].end;
  const geom::Point2 senderPos = history_[txId - historyBaseId_].senderPos;
  const Frame frame = history_[txId - historyBaseId_].frame;

  // A churned sender whose radio shut off mid-frame truncated the
  // transmission: nobody decodes it (the symmetric rule to the per-receiver
  // radioUpSince check below). The frame still interferes — the history
  // scan for collisions is unaffected — it just cannot be received.
  Mac* senderMac = static_cast<std::size_t>(sender) < macs_.size()
                       ? macs_[static_cast<std::size_t>(sender)]
                       : nullptr;
  const bool senderCompleted =
      senderMac == nullptr || senderMac->radioUpSince(txStart);

  if (senderCompleted) {
    // Stage 1 — candidate ids, ascending (the exact full-scan visit order):
    // attached, not the sender, radio up for the frame's whole airtime (a
    // radio that woke mid-frame heard only a fragment).
    candIds_.clear();
    const auto consider = [this, sender, txStart](int v) {
      Mac* mac = static_cast<std::size_t>(v) < macs_.size()
                     ? macs_[static_cast<std::size_t>(v)]
                     : nullptr;
      if (mac == nullptr || v == sender) return;
      if (!mac->radioUpSince(txStart)) return;
      candIds_.push_back(v);
    };
    if (frame.dst != net::kBroadcast) {
      // Unicast: the destination is the only possible receiver.
      consider(frame.dst);
    } else if (indexEnabled_) {
      // Broadcast with the receiver index: enumerate only nodes that can
      // possibly be in range (candidates are padded for snapshot drift and
      // sorted, so decisions and event order match the full scan exactly).
      for (int v : receiverCandidates(senderPos)) consider(v);
    } else {
      for (std::size_t v = 0; v < macs_.size(); ++v) {
        consider(static_cast<int>(v));
      }
    }

    const std::size_t n = candIds_.size();
    if (n > 0) {
      // Stage 2 — gather candidate positions in one batch call, then
      // distance² and rx-power over flat arrays (one virtual dispatch for
      // the whole set).
      candPos_.resize(n);
      candDist2_.resize(n);
      candSignal_.resize(n);
      gatherPositions(candIds_.data(), n, candPos_.data());
      for (std::size_t i = 0; i < n; ++i) {
        candDist2_[i] = geom::dist2(senderPos, candPos_[i]);
      }
      model_.rxPowerFromDist2(txPowerFor(sender), candDist2_.data(),
                              candSignal_.data(), n);

      // Stage 3 — the overlap set, once per transmission instead of one
      // history scan per receiver: every entry that was on air during
      // [txStart, txEnd) from a different sender. The backward walk stops
      // at the prefix-max bound exactly like mediumBusy. Ring *indices*
      // (not references) survive a mid-delivery push_back, so the collision
      // loop re-fetches entries by index. Entries whose carrier-sense reach
      // cannot span dist(sender, other) - maxCandDist are below
      // csThresholdW at every candidate (triangle inequality: each
      // candidate sits within maxCandDist of the sender), so dropping them
      // cannot flip any collision verdict.
      double maxCandDist2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        maxCandDist2 = std::max(maxCandDist2, candDist2_[i]);
      }
      const double maxCandDist = std::sqrt(maxCandDist2);
      overlapIdx_.clear();
      overlapPower_.clear();
      for (std::size_t j = history_.size(); j-- > 0;) {
        const ActiveTx& other = history_[j];
        if (other.maxEndUpTo <= txStart) break;
        if (other.sender == sender) continue;
        if (other.start >= txEnd || txStart >= other.end) continue;
        const double reach = csRangeFor(other.sender) + maxCandDist;
        if (geom::dist2(other.senderPos, senderPos) > reach * reach) continue;
        overlapIdx_.push_back(j);
        overlapPower_.push_back(txPowerFor(other.sender));
      }

      // Stage 4 — per-candidate decisions, in candidate (ascending id)
      // order, with checks in the same order as the old per-receiver path:
      // range, busy-transmitting, collision.
      for (std::size_t i = 0; i < n; ++i) {
        const double signal = candSignal_[i];
        if (signal < thresholds_.rxThresholdW) continue;  // out of range
        const int v = candIds_[i];
        Mac* mac = macs_[static_cast<std::size_t>(v)];
        if (mac->transmittedDuring(txStart, txEnd)) {
          ++stats_.rxWhileTx;
          continue;
        }
        bool collided = false;
        for (std::size_t k = 0; k < overlapIdx_.size(); ++k) {
          const ActiveTx& other = history_[overlapIdx_[k]];
          const int otherSender = other.sender;
          const geom::Point2 otherPos = other.senderPos;
          if (otherSender == v) continue;
          // Per-candidate prefilter: past carrier-sense reach the power
          // check below is guaranteed false — skip the propagation virtual.
          const double cs = csRangeFor(otherSender);
          if (geom::dist2(otherPos, candPos_[i]) > cs * cs) continue;
          const double p = model_.rxPower(overlapPower_[k],
                                          geom::dist(otherPos, candPos_[i]));
          if (p >= thresholds_.csThresholdW && p * kCaptureRatio > signal) {
            collided = true;
            break;
          }
        }
        if (collided) {
          ++stats_.collisions;
          continue;
        }
        if (deliveryFilter_ && !deliveryFilter_(frame, v)) {
          ++stats_.faultDrops;
          continue;
        }
        ++stats_.framesDelivered;
        mac->onFrameReceived(frame);
      }
    }
  }

  while (!history_.empty() &&
         history_.front().end < sim_.now() - kHistoryKeep) {
    history_.pop_front();
    ++historyBaseId_;
  }
}

template <class Ar>
void Channel::visit(Ar& ar) {
  ar.sequence(history_, 54, [&](ActiveTx& tx) {
    ar.i32(tx.sender);
    ar.enumeration(tx.frame.type, Frame::Type::kAck,
                   "active transmission holds invalid frame type");
    ar.i32(tx.frame.src);
    ar.i32(tx.frame.dst);
    ar.u64(tx.frame.seq);
    ar.u64(tx.frame.bytes);  // simulated bytes, not a bounded count
    ckpt::visit(ar, tx.frame.packet);
    ar.f64(tx.start);
    ar.f64(tx.end);
    ar.f64(tx.maxEndUpTo);
    ckpt::visit(ar, tx.senderPos);
  });
  ar.u64(nextTxId_);
  ar.u64(historyBaseId_);
  ar.u64(stats_.framesSent);
  ar.u64(stats_.framesDelivered);
  ar.u64(stats_.collisions);
  ar.u64(stats_.rxWhileTx);
  ar.u64(stats_.faultDrops);
  ar.f64(stats_.airTimeSeconds);
  if constexpr (Ar::kLoading) {
    // Drop the receiver index; the next candidate query rebuilds it fresh
    // at the restored clock (pure superset cache — see the header comment).
    indexGrid_.reset();
    indexBuiltAt_ = -1.0;
  }
}

template void Channel::visit(ckpt::Encoder&);
template void Channel::visit(ckpt::Decoder&);

void Channel::restoreTxEndEvent(const sim::EventKey& key, std::uint64_t txId) {
  if (txId >= nextTxId_) {
    throw std::runtime_error{
        "checkpoint: tx-end event names transmission " + std::to_string(txId) +
        " but only " + std::to_string(nextTxId_) + " were ever started"};
  }
  sim_.scheduleKeyed(key, txEndDesc(txId),
                     [this, txId] { finishTransmission(txId); });
}

}  // namespace glr::mac
