#include "sim/simulator.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace glr::sim {

namespace {

std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Simulator::skipStale() {
  for (Tier t = minTier(); t != Tier::kNone && stale(topAux(t));
       t = minTier()) {
    pop(t);
    --staleCount_;
  }
}

void Simulator::compact() {
  const auto isStale = [this](const EventAux& aux) { return stale(aux); };
  near_.removeIf(isStale);
  onFar([&](auto& q) { q.removeIf(isStale); });
  staleCount_ = 0;
}

bool Simulator::hasPending() {
  skipStale();
  return queueSize() != 0;
}

void Simulator::reserve(std::size_t events, std::size_t burst) {
  slab_.reserve(events);
  near_.reserve(burst);
  onFar([&](auto& q) { q.reserve(events); });
}

std::uint64_t Simulator::fireTop(Tier t) {
  // One peek serves the stale check, the event fetch, and the clock bump:
  // the slot's cacheline is loaded exactly once per event.
  const EventAux aux = topAux(t);
  Slot& s = slab_[aux.slot];
  if (s.generation != aux.generation) {
    pop(t);
    --staleCount_;
    return 0;
  }
  now_ = bitsToTime(topKey(t).timeBits);
  pop(t);
  // Copy the event out and free the slot *before* firing: the sink may
  // schedule new events (reusing this very slot or growing the slab) and
  // late cancels on it must already be no-ops.
  EventSink* const sink = s.sink;
  const EventDesc desc = s.desc;
  releaseSlot(aux.slot);
  // Counted before firing so a checkpoint written from inside an event
  // includes the event in progress — the restored run will not re-run it.
  ++executed_;
  sink->onEvent(desc);
  return 1;
}

std::vector<Simulator::PendingEvent> Simulator::pendingEvents() {
  // Drain every record in fire order, shedding stale (cancelled) ones, then
  // re-insert the survivors. Re-insertion in ascending key order is cheap in
  // every tier (heap pushes never sift, calendar pushes are O(1)) and cannot
  // change the fire sequence: pops always take the exact (time, seq)
  // minimum, whatever the internal layout.
  std::vector<std::pair<EventKey, EventAux>> records;
  records.reserve(queueSize());
  for (Tier t = minTier(); t != Tier::kNone; t = minTier()) {
    const EventKey key = topKey(t);
    const EventAux aux = topAux(t);
    pop(t);
    if (stale(aux)) {
      --staleCount_;
      continue;
    }
    records.emplace_back(key, aux);
  }
  staleCount_ = 0;
  std::vector<PendingEvent> out;
  out.reserve(records.size());
  for (const auto& [key, aux] : records) {
    push(key, aux);
    out.push_back(PendingEvent{key, slab_[aux.slot].desc});
  }
  return out;
}

EventHandle Simulator::scheduleKeyed(EventKey key, EventSink& sink,
                                     const EventDesc& desc) {
  if (bitsToTime(key.timeBits) < now_) {
    throw std::invalid_argument{
        "Simulator::scheduleKeyed: event time is in the past"};
  }
  if (key.seq >= nextSeq_) {
    throw std::invalid_argument{
        "Simulator::scheduleKeyed: seq not covered by restored clock"};
  }
  return arm(key, sink, desc);
}

void Simulator::clearPending() {
  for (Tier t = minTier(); t != Tier::kNone; t = minTier()) {
    const EventAux aux = topAux(t);
    pop(t);
    if (!stale(aux)) releaseSlot(aux.slot);
  }
  staleCount_ = 0;
}

void Simulator::restoreClock(SimTime now, std::uint64_t nextSeq,
                             std::uint64_t executed) {
  if (queueSize() != 0) {
    throw std::logic_error{"Simulator::restoreClock: queue must be empty"};
  }
  now_ = now;
  nextSeq_ = nextSeq;
  executed_ = executed;
}

void Simulator::setWallDeadline(double seconds) {
  if (seconds <= 0.0) {
    wallDeadlineNs_ = 0;
    return;
  }
  wallDeadlineNs_ =
      steadyNowNs() + static_cast<std::uint64_t>(seconds * 1e9);
}

void Simulator::checkWallDeadline() {
  if (steadyNowNs() >= wallDeadlineNs_) {
    throw WallClockTimeout{"Simulator::run: wall-clock deadline exceeded"};
  }
}

std::uint64_t Simulator::run(SimTime until) {
  stopped_ = false;
  // Pending events all have time >= now_, so nothing can fire — and the
  // bit-pattern horizon compare below assumes a non-negative `until`, which
  // this guard also establishes (matching the legacy kernel, which only
  // shed cancelled heads in this case).
  if (until < now_) {
    skipStale();
    return 0;
  }
  std::uint64_t ran = 0;
  const std::uint64_t untilBits = timeToBits(until);
  while (!stopped_) {
    // The minimum is found once per event and serves the horizon check,
    // the stale check and the pop.
    const Tier t = minTier();
    if (t == Tier::kNone ||
        (topKey(t).timeBits > untilBits && !stale(topAux(t)))) {
      break;
    }
    ran += fireTop(t);
    if (wallDeadlineNs_ != 0 && (++wallCheckTick_ & kWallCheckMask) == 0) {
      checkWallDeadline();
    }
  }
  // The old kernel skipped cancelled heads before observing stop(), so a
  // queue holding only dead records still counted as drained.
  if (stopped_) skipStale();
  if (queueSize() == 0 && now_ < until && until < kForever) now_ = until;
  return ran;
}

std::uint64_t Simulator::step(std::uint64_t n) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (ran < n && !stopped_) {
    const Tier t = minTier();
    if (t == Tier::kNone) break;
    ran += fireTop(t);
    if (wallDeadlineNs_ != 0 && (++wallCheckTick_ & kWallCheckMask) == 0) {
      checkWallDeadline();
    }
  }
  return ran;
}

}  // namespace glr::sim
