#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// A `Simulator` owns a time-ordered event queue. Events are arbitrary
/// callbacks scheduled at absolute or relative times; ties are broken by
/// insertion order so runs are fully deterministic. Scheduled events can be
/// cancelled through the returned `EventHandle` (used heavily by MAC timers
/// and DTN cache timeouts).
///
/// The kernel is allocation-free on the hot path: callbacks live in a
/// free-listed slab of slots (`InplaceFunction` keeps captures inline), the
/// pending set is small `{time, seq, slot, generation}` records, and
/// cancellation is an O(1) generation bump with lazy removal — no
/// `shared_ptr` flags, no `std::function`, and no event copies on pop. Once
/// the slab and queues have grown to the scenario's working set,
/// scheduling, cancelling, and firing events touch the allocator only for
/// the rare callback larger than `kSimCallbackCapacity` bytes.
///
/// The pending set has two tiers. A record due less than `kNearHorizon`
/// after the clock when scheduled goes to the near tier, a 4-ary heap
/// (`EventHeap`); every other record goes to the far tier, a second heap
/// or, in `kCalendar` mode, a `CalendarQueue`. Nearly every event is a MAC
/// or channel event a few milliseconds out, while hellos, route checks and
/// custody timers wait a second or more, so the near heap stays a dozen
/// records deep and MAC events never sift past seconds-ahead timers. A
/// burst scheduled at one time (every node's start event) lands in a heap,
/// never in one calendar bucket. Each pop takes the earlier of the two
/// tier tops by `earlierKey`, so the fire order is the single queue's by
/// construction: the routing decides only cost.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_heap.hpp"
#include "sim/inplace_function.hpp"

namespace glr::sim {

/// Simulation time in seconds.
using SimTime = double;

class Simulator;

/// Optional per-event description: a small POD tag that lets the checkpoint
/// layer re-create a pending event's callback after a restore (closures are
/// not serializable, so each schedule site names itself and its captures
/// here instead). Field meaning is owned by the schedule sites — see
/// checkpoint/event_kinds.hpp; the kernel only stores and returns the tag.
/// kind == 0 means "undescribed": the checkpoint writer refuses to snapshot
/// a queue holding an undescribed live event, so a forgotten tag is a loud
/// error at snapshot time, never silent divergence at restore time.
struct EventDesc {
  std::uint16_t kind = 0;
  std::uint8_t b0 = 0;
  std::uint8_t b1 = 0;
  std::int32_t i0 = 0;
  std::int32_t i1 = 0;
  std::uint64_t u0 = 0;
  std::uint64_t u1 = 0;
  double f0 = 0.0;
  double f1 = 0.0;
};

/// Thrown by run()/step() when a wall-clock deadline armed via
/// setWallDeadline() expires. The sweep watchdog catches this to count and
/// retry hung cells instead of letting them stall a whole experiment.
class WallClockTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cancellation token for a scheduled event: a trivially-copyable
/// `{slot, generation}` pair into the owning simulator's slab. Default-
/// constructed handles are inert; `cancel()` on an already-fired event is a
/// no-op, and a handle whose slot has been reused by a newer event is inert
/// too (the generation no longer matches). Handles must not outlive their
/// simulator — the same lifetime rule as the `Simulator&` every agent holds.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly.
  void cancel();

  /// True if the event is still scheduled and will fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot,
              std::uint32_t generation) noexcept
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Deterministic discrete-event scheduler. Neither copyable nor movable:
/// every EventHandle holds a pointer back to its simulator, so the object
/// must stay put for the handles' lifetime (agents hold `Simulator&`
/// references under the same rule).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  using Callback = InplaceFunction<void(), kSimCallbackCapacity>;

  /// Which structure orders the far tier (the near tier is always a heap).
  /// Both fire the identical event sequence (same (time, seq) tie-break);
  /// they differ only in cost profile — the 4-ary heap is the default, the
  /// calendar queue keeps per-event cost flat for million-deep queues.
  enum class QueueMode { kHeap4, kCalendar };

  /// Switches the event-ordering structure. Only legal while the queue is
  /// empty (typically right after construction, before any scheduling).
  void setQueueMode(QueueMode mode) {
    if (queueSize() != 0) {
      throw std::logic_error{
          "Simulator::setQueueMode: queue must be empty to switch"};
    }
    if (mode == QueueMode::kCalendar) {
      if (!cal_) cal_ = std::make_unique<CalendarQueue>();
    } else {
      cal_.reset();
    }
  }

  [[nodiscard]] QueueMode queueMode() const {
    return cal_ ? QueueMode::kCalendar : QueueMode::kHeap4;
  }

  /// Current simulation time (seconds).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns a handle
  /// that can cancel the event. Defined inline below: scheduling runs once
  /// per event on the hot path and must not cost a cross-TU call.
  EventHandle scheduleAt(SimTime t, Callback fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, Callback fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  /// Tagged variants: identical scheduling semantics, but the descriptor is
  /// recorded alongside the event when enableEventDescriptions() is active
  /// (one predicted branch and a 48-byte store; nothing when inactive).
  EventHandle scheduleAt(SimTime t, const EventDesc& desc, Callback fn);
  EventHandle schedule(SimTime delay, const EventDesc& desc, Callback fn) {
    return scheduleAt(now_ + delay, desc, std::move(fn));
  }

  /// Turns on descriptor storage. Must be enabled before the first schedule
  /// for pendingEvents() to see every live event described.
  void enableEventDescriptions() { descEnabled_ = true; }
  [[nodiscard]] bool eventDescriptionsEnabled() const { return descEnabled_; }

  /// One live pending event, as the checkpoint layer sees it.
  struct PendingEvent {
    EventKey key;
    EventDesc desc;
  };

  /// Snapshot of every live (non-cancelled) pending event in exact fire
  /// order. Requires enableEventDescriptions(). Internally drains and
  /// re-inserts the queue records; the observable event sequence is
  /// unchanged — both queue modes pop the exact (time, seq) minimum
  /// regardless of internal layout, so re-insertion cannot reorder fires.
  [[nodiscard]] std::vector<PendingEvent> pendingEvents();

  /// Restore support: re-creates one pending event under an exact
  /// pre-assigned (timeBits, seq) key so tie-breaking after a restore is
  /// bit-identical to the snapshotted run. The key must lie in the past of
  /// nextSeq (set via restoreClock first) and not before now().
  EventHandle scheduleKeyed(EventKey key, const EventDesc& desc, Callback fn);

  /// Restore support: discards every queued record (cancelled ones included)
  /// and releases their slots. The clock and counters are untouched.
  void clearPending();

  /// Restore support: overwrites clock, sequence counter and executed-event
  /// counter. Only legal while the queue is empty.
  void restoreClock(SimTime now, std::uint64_t nextSeq, std::uint64_t executed);

  /// Next insertion-order sequence number (checkpointed so restored runs
  /// break ties identically).
  [[nodiscard]] std::uint64_t nextSeq() const { return nextSeq_; }

  /// Canonical time <-> ordering-bit-pattern conversion. Public because
  /// event keys are persisted as bit patterns (checkpoint layer, tools).
  static std::uint64_t timeToBits(SimTime t) {
    // +0.0 canonicalizes -0.0 (whose bit pattern would misorder).
    return std::bit_cast<std::uint64_t>(t + 0.0);
  }

  static SimTime bitsToTime(std::uint64_t bits) {
    return std::bit_cast<SimTime>(bits);
  }

  /// Arms a wall-clock deadline: run()/step() throw WallClockTimeout once
  /// `seconds` of wall time elapse, checked every few thousand events so the
  /// hot loop cost is one counter increment. seconds <= 0 disarms.
  void setWallDeadline(double seconds);

  /// Runs events in time order until the queue is empty, `until` is reached,
  /// or `stop()` is called. Events scheduled exactly at `until` do fire.
  /// Returns the number of events executed by this call.
  std::uint64_t run(SimTime until = kForever);

  /// Executes at most `n` events (ignoring cancelled ones); used in tests.
  /// Like `run()`, returns early if an event calls `stop()`.
  std::uint64_t step(std::uint64_t n = 1);

  /// Requests `run()` (or `step()`) to return after the current event
  /// completes.
  void stop() { stopped_ = true; }

  /// Total events executed over the simulator's lifetime.
  [[nodiscard]] std::uint64_t eventsExecuted() const { return executed_; }

  /// Events currently queued (including cancelled-but-not-popped ones).
  [[nodiscard]] std::size_t queueSize() const {
    return near_.size() + (cal_ ? cal_->size() : far_.size());
  }

  /// Whether there is at least one non-cancelled event pending.
  [[nodiscard]] bool hasPending();

  /// Pre-sizes the slab and the far tier for `events` concurrently-pending
  /// events, and the near tier for a `burst` of events due at once (one
  /// start event per node at t=0), so even the first scheduling burst never
  /// reallocates.
  void reserve(std::size_t events, std::size_t burst);

  static constexpr SimTime kForever = 1e300;

  /// Lead below which a record joins the near tier. It sits in the gap of
  /// the paper setup's event mix: MAC and channel events lead by
  /// microseconds to milliseconds, while hellos lead by 0.675–0.825 s,
  /// periodic route checks by 0.9 s and custody timers by at least 1 s.
  static constexpr SimTime kNearHorizon = 0.05;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  /// Slab cell. An armed slot holds the callback; a free slot links the
  /// free list. The generation counter is bumped whenever the slot's event
  /// fires or is cancelled, instantly invalidating stale handles and stale
  /// queue records. Cacheline-aligned: callback + metadata are exactly one
  /// line, so arming/firing a slot touches a single line of the slab.
  struct alignas(64) Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t nextFree = kNilSlot;
  };

  [[nodiscard]] bool stale(const EventAux& a) const {
    return slab_[a.slot].generation != a.generation;
  }

  /// Applies `f` to the far tier: the calendar wheel in kCalendar mode, the
  /// second heap otherwise. Both expose the same queue interface.
  template <class F>
  decltype(auto) onFar(F&& f) {
    return cal_ ? f(*cal_) : f(far_);
  }

  /// The tier holding the earliest record, if any.
  enum class Tier : std::uint8_t { kNone, kNear, kFar };
  [[nodiscard]] Tier minTier() {
    const bool farEmpty = onFar([](auto& q) { return q.empty(); });
    if (near_.empty()) return farEmpty ? Tier::kNone : Tier::kFar;
    const bool nearFirst =
        farEmpty || earlierKey(near_.topKey(), topKey(Tier::kFar));
    return nearFirst ? Tier::kNear : Tier::kFar;
  }
  [[nodiscard]] const EventKey& topKey(Tier t) {
    return t == Tier::kNear
               ? near_.topKey()
               : onFar([](auto& q) -> const EventKey& { return q.topKey(); });
  }
  [[nodiscard]] const EventAux& topAux(Tier t) {
    return t == Tier::kNear
               ? near_.topAux()
               : onFar([](auto& q) -> const EventAux& { return q.topAux(); });
  }
  void pop(Tier t) {
    if (t == Tier::kNear) {
      near_.popTop();
    } else {
      onFar([](auto& q) { q.popTop(); });
    }
  }
  /// The one routing point: every record enters the pending set here.
  void push(EventKey key, EventAux aux) {
    if (key.timeBits < timeToBits(now_ + kNearHorizon)) {
      near_.push(key, aux);
    } else {
      onFar([&](auto& q) { q.push(key, aux); });
    }
  }

  /// Discards records for cancelled/fired events at the head of the queue.
  void skipStale();
  /// Removes every stale record from both tiers in one O(n) pass.
  /// Cancellation is lazy (records of cancelled events stay queued until
  /// popped), so a cancel-heavy phase — e.g. MAC ACK timers, which are
  /// cancelled on every successful delivery — would otherwise pay a
  /// full-depth sift per dead record and keep the heaps artificially deep.
  /// The generation check makes dead records detectable in O(1), which is
  /// what makes this sweep possible at all.
  void compact();

  std::uint32_t acquireSlot() {
    if (freeHead_ != kNilSlot) {
      const std::uint32_t slot = freeHead_;
      freeHead_ = slab_[slot].nextFree;
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    return slot;
  }

  /// Destroys the slot's callback, bumps its generation, and returns it to
  /// the free list.
  void releaseSlot(std::uint32_t slot) {
    Slot& s = slab_[slot];
    s.fn.reset();
    ++s.generation;  // stale handles and queue records become inert here
    s.nextFree = freeHead_;
    freeHead_ = slot;
  }

  /// Fires the head event of tier `t`, which must hold the earliest record
  /// (returns 1), or pops it without firing and returns 0 if its record is
  /// stale (cancelled event).
  std::uint64_t fireTop(Tier t);

  bool cancelEvent(std::uint32_t slot, std::uint32_t generation) {
    if (!eventPending(slot, generation)) return false;
    // The queue record is left in place; pops discard it once its generation
    // no longer matches the slot's, and a compaction sweep reclaims them in
    // bulk when they pile up.
    releaseSlot(slot);
    ++staleCount_;
    if (staleCount_ > kCompactMinStale && staleCount_ * 2 > queueSize()) {
      compact();
    }
    return true;
  }

  /// Compaction threshold: don't bother sweeping tiny queues.
  static constexpr std::size_t kCompactMinStale = 64;
  [[nodiscard]] bool eventPending(std::uint32_t slot,
                                  std::uint32_t generation) const {
    return slot < slab_.size() && slab_[slot].generation == generation;
  }

  /// Shared body of the tagged and untagged schedule paths. `desc` is null
  /// for the untagged overload (stored as kind 0 = undescribed when
  /// descriptor storage is on, so slot reuse never leaks a stale tag).
  EventHandle scheduleTagged(SimTime t, const EventDesc* desc, Callback fn);

  /// Throws WallClockTimeout if the armed deadline has passed. Out of line:
  /// only reached every kWallCheckMask+1 events.
  void checkWallDeadline();

  static constexpr std::uint64_t kWallCheckMask = 0x1FFF;

  std::vector<Slot> slab_;
  std::uint32_t freeHead_ = kNilSlot;
  /// The two tiers (see the file comment).
  EventHeap near_;
  EventHeap far_;
  /// Non-null iff the calendar-queue mode is active (then far_ stays empty
  /// and every far record lives in the wheel).
  std::unique_ptr<CalendarQueue> cal_;
  /// Queued records whose event was cancelled (fired events pop
  /// immediately, cancelled ones linger); drives the compaction heuristic.
  std::size_t staleCount_ = 0;
  /// Per-slot event descriptors, parallel to `slab_`. Grown lazily and only
  /// when descriptor storage is enabled, so checkpoint-less runs pay no
  /// memory for it.
  std::vector<EventDesc> descs_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  bool descEnabled_ = false;
  /// Wall-clock deadline (steady-clock nanoseconds since epoch; 0 = none)
  /// and the event counter that rate-limits the clock reads.
  std::uint64_t wallDeadlineNs_ = 0;
  std::uint64_t wallCheckTick_ = 0;
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancelEvent(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->eventPending(slot_, generation_);
}

inline EventHandle Simulator::scheduleTagged(SimTime t, const EventDesc* desc,
                                             Callback fn) {
  if (t < now_) {
    throw std::invalid_argument{"Simulator::scheduleAt: time is in the past"};
  }
  if (!fn) {
    throw std::invalid_argument{"Simulator::scheduleAt: empty callback"};
  }
  const std::uint32_t slot = acquireSlot();
  if (descEnabled_) {
    if (descs_.size() < slab_.size()) descs_.resize(slab_.size());
    descs_[slot] = desc != nullptr ? *desc : EventDesc{};
  }
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  push(EventKey{timeToBits(t), nextSeq_++}, EventAux{slot, s.generation});
  return EventHandle{this, slot, s.generation};
}

inline EventHandle Simulator::scheduleAt(SimTime t, Callback fn) {
  return scheduleTagged(t, nullptr, std::move(fn));
}

inline EventHandle Simulator::scheduleAt(SimTime t, const EventDesc& desc,
                                         Callback fn) {
  return scheduleTagged(t, &desc, std::move(fn));
}

}  // namespace glr::sim
