#include "net/neighbor.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"

namespace glr::net {

namespace {

/// knowledge()'s id -> output slot table, indexed by (dense, non-negative)
/// node id and generation-stamped: a lookup is O(1) and the per-call
/// "clear" is one counter bump. Negative ids fall back to a linear probe of
/// the output.
struct KnowledgeScratch {
  struct Slot {
    std::uint32_t stamp = 0;  // == KnowledgeScratch::stamp -> set this call
    std::uint32_t index = 0;  // into the output
  };
  std::vector<Slot> byId;
  std::vector<sim::SimTime> heardAt;  // per output entry: observation time
  std::uint32_t stamp = 0;

  void begin() {
    if (stamp == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(byId.begin(), byId.end(), Slot{});
      stamp = 0;
    }
    ++stamp;
    heardAt.clear();
  }

  /// Output index of `id`, or out.size() when this call has not added it.
  [[nodiscard]] std::size_t find(int id,
                                 const std::vector<spanner::KnownNode>& out) {
    if (id < 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].id == id) return i;
      }
      return out.size();
    }
    const auto i = static_cast<std::size_t>(id);
    return i < byId.size() && byId[i].stamp == stamp ? byId[i].index
                                                     : out.size();
  }

  void add(std::vector<spanner::KnownNode>& out, spanner::KnownNode kn,
           sim::SimTime at) {
    if (kn.id >= 0) {
      const auto i = static_cast<std::size_t>(kn.id);
      if (i >= byId.size()) byId.resize(i + 1);
      byId[i] = {stamp, static_cast<std::uint32_t>(out.size())};
    }
    heardAt.push_back(at);
    out.push_back(kn);
  }
};

KnowledgeScratch& knowledgeScratch() {
  static thread_local KnowledgeScratch s;
  return s;
}

}  // namespace

NeighborService::NeighborService(sim::Simulator& sim, mac::Mac& mac, int self,
                                 Owner& owner,
                                 std::shared_ptr<const Params> params,
                                 sim::Rng rng)
    : sim_(sim),
      mac_(mac),
      self_(self),
      owner_(&owner),
      params_(std::move(params)),
      rng_(rng) {
  if (params_ == nullptr) {
    throw std::invalid_argument{"NeighborService: params required"};
  }
  if (params_->helloInterval <= 0.0 || params_->expiry <= 0.0) {
    throw std::invalid_argument{"NeighborService: bad interval/expiry"};
  }
}

NeighborService::NeighborService(sim::Simulator& sim, mac::Mac& mac, int self,
                                 Owner& owner, const Params& params,
                                 sim::Rng rng)
    : NeighborService(sim, mac, self, owner,
                      std::make_shared<const Params>(params), rng) {}

bool NeighborService::fresh(const NeighborRecord& r) const {
  return sim_.now() - r.heard <= params_->expiry;
}

std::size_t NeighborService::lowerBound(int id) const {
  // A linear scan: tables hold tens of entries at most, where it beats a
  // binary search's mispredicted branches and a count over every entry
  // (which the compiler vectorizes into strided loads).
  std::size_t i = 0;
  while (i < table_.size() && table_[i].id < id) ++i;
  return i;
}

const NeighborService::NeighborRecord* NeighborService::find(int id) const {
  const std::size_t i = lowerBound(id);
  return i < table_.size() && table_[i].id == id ? &table_[i].rec : nullptr;
}

void NeighborService::start() {
  // Desynchronize: first beacon at a uniform offset inside one interval.
  sim_.schedule(rng_.uniform(0.0, params_->helloInterval), *this,
                {.kind = ckpt::kHello, .i0 = self_});
}

NeighborList& NeighborService::freeHelloList(std::size_t entries) {
  // The front block carries the latest hello, whose receivers keep it until
  // this node's next one arrives, so the older block is usually free and
  // moves to the front. Otherwise the front block is reused if nobody
  // holds it. When both are still held (a receiver missed a hello, or went
  // stale without sweeping yet), a new block takes the older one's slot;
  // the older one lives on with its holders until the last lets go. A
  // block too small for this hello is replaced by an exact fit.
  if (helloLists_[1].unique() || !helloLists_[0].unique()) {
    std::swap(helloLists_[0], helloLists_[1]);
  }
  NeighborList& list = helloLists_[0];
  if (!list.unique() || list.capacity() < entries) {
    list = NeighborList::withCapacity(entries);
  }
  return list;
}

void NeighborService::sendHello() {
  // The payload block comes from the per-thread hello arena, and the
  // neighbor list is written into a block of this node's list pool, which
  // keeps its capacity: once both have grown, a beacon allocates nothing.
  Payload payload = Payload::create<HelloPayload>();
  HelloPayload& hello = payload.mutableValue<HelloPayload>();
  hello.id = self_;
  hello.pos = owner_->helloPosition();
  hello.sentAt = sim_.now();
  NeighborList* list = nullptr;
  if (params_->includeNeighborList) {
    std::size_t freshCount = 0;
    for (const Entry& e : table_) freshCount += fresh(e.rec) ? 1 : 0;
    list = &freeHelloList(freshCount);
    list->clear();
  }
  std::size_t bytes = params_->baseBytes;
  const double evictHorizon = params_->evictAfterFactor > 0.0
                                  ? params_->evictAfterFactor * params_->expiry
                                  : 0.0;
  // One pass lists the fresh entries and closes up over evicted ones, so
  // the kept entries stay in id order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    NeighborRecord& rec = table_[i].rec;
    if (fresh(rec)) {
      if (list != nullptr) {
        list->push_back({table_[i].id, rec.pos, rec.heard});
        bytes += params_->perNeighborBytes;
      }
    } else {
      // Stale record. Its reported list is dead weight: no reader looks at
      // a stale record's entries, and a future hello from this id replaces
      // them, so dropping the reference now is observation-equivalent and
      // lets the sender reuse or free the block.
      rec.reported.reset();
      if (evictHorizon > 0.0 &&
          sim_.now() - rec.heard > params_->expiry + evictHorizon) {
        continue;
      }
    }
    if (kept != i) table_[kept] = std::move(table_[i]);
    ++kept;
  }
  table_.erase(table_.begin() + static_cast<std::ptrdiff_t>(kept),
               table_.end());
  if (list != nullptr) hello.neighbors = *list;
  Packet p;
  p.bytes = bytes;
  p.kind = kHelloKind;
  p.payload = std::move(payload);
  if (!mac_.send(std::move(p), kBroadcast)) ++helloSendFailures_;
  ++hellosSent_;

  // Jittered periodic re-beacon (+/-10%) to avoid phase locking.
  const double next =
      params_->helloInterval * rng_.uniform(0.9, 1.1);
  sim_.schedule(next, *this, {.kind = ckpt::kHello, .i0 = self_});
}

template <class Ar>
void HelloEntry::visit(Ar& ar) {
  ar.i32(id);
  ckpt::visit(ar, pos);
  ar.f64(heardAt);
}

template <class Ar>
void NeighborList::visit(Ar& ar) {
  if constexpr (Ar::kLoading) {
    std::vector<HelloEntry> entries;
    ar.sequence(entries, 20, [&](HelloEntry& e) { e.visit(ar); });
    reset();
    if (!entries.empty()) {
      *this = withCapacity(entries.size());
      for (const HelloEntry& e : entries) push_back(e);
    }
  } else {
    ar.count(size(), 20);
    for (HelloEntry e : *this) e.visit(ar);
  }
}

template <class Ar>
void NeighborService::visit(Ar& ar, std::size_t numNodes) {
  ar.rng(rng_);
  // Each entry is at least its id, position, time and list count.
  int previous = -1;
  ar.sequence(table_, 36, [&](Entry& e) {
    ar.i32(e.id);
    if constexpr (Ar::kLoading) {
      if (e.id < 0 || static_cast<std::size_t>(e.id) >= numNodes) {
        ar.fail("neighbor id " + std::to_string(e.id) + " outside [0, " +
                std::to_string(numNodes) + ")");
      }
      if (e.id <= previous) {
        ar.fail("neighbor id " + std::to_string(e.id) +
                " does not ascend from " + std::to_string(previous));
      }
      previous = e.id;
    }
    ckpt::visit(ar, e.rec.pos);
    ar.f64(e.rec.heard);
    e.rec.reported.visit(ar);
  });
  ar.u64(hellosSent_);
  ar.u64(hellosReceived_);
  ar.u64(helloSendFailures_);
}

template void HelloEntry::visit(ckpt::Encoder&);
template void HelloEntry::visit(ckpt::Decoder&);
template void NeighborList::visit(ckpt::Encoder&);
template void NeighborList::visit(ckpt::Decoder&);
template void NeighborService::visit(ckpt::Encoder&, std::size_t);
template void NeighborService::visit(ckpt::Decoder&, std::size_t);

bool NeighborService::handlePacket(const Packet& packet, int /*fromMac*/) {
  if (packet.kind != kHelloKind) return false;
  const auto* hello = packet.payload.get<HelloPayload>();
  if (hello == nullptr) return false;
  ++hellosReceived_;

  const std::size_t at = lowerBound(hello->id);
  if (at == table_.size() || table_[at].id != hello->id) {
    // Grow by one entry, not by doubling: a new neighbor is rare next to
    // its hellos, and a table held at its size keeps idle nodes small.
    if (table_.size() == table_.capacity()) table_.reserve(table_.size() + 1);
    table_.insert(table_.begin() + static_cast<std::ptrdiff_t>(at),
                  Entry{.id = hello->id, .rec = {}});
  }
  NeighborRecord& rec = table_[at].rec;
  const bool wasFresh = fresh(rec);
  rec.pos = hello->pos;
  rec.heard = sim_.now();
  rec.reported = hello->neighbors;  // shares the sender's block

  owner_->onLocationSample(hello->id, hello->pos, hello->sentAt);
  for (const HelloEntry& e : hello->neighbors) {
    if (e.id != self_) owner_->onLocationSample(e.id, e.pos, e.heardAt);
  }
  if (!wasFresh) owner_->onContact(hello->id);
  return true;
}

std::vector<int> NeighborService::currentNeighbors() const {
  std::vector<int> out;
  out.reserve(table_.size());
  for (const Entry& e : table_) {
    if (fresh(e.rec)) out.push_back(e.id);
  }
  return out;
}

bool NeighborService::isNeighbor(int id) const {
  const NeighborRecord* rec = find(id);
  return rec != nullptr && fresh(*rec);
}

std::optional<geom::Point2> NeighborService::neighborPosition(int id) const {
  const NeighborRecord* rec = find(id);
  if (rec == nullptr || !fresh(*rec)) return std::nullopt;
  return rec->pos;
}

const NeighborList& NeighborService::reportedBy(int id) const {
  static const NeighborList kNone;
  const NeighborRecord* rec = find(id);
  return rec != nullptr ? rec->reported : kNone;
}

void NeighborService::knowledge(std::vector<spanner::KnownNode>& out) const {
  KnowledgeScratch& s = knowledgeScratch();
  s.begin();
  out.clear();
  for (const Entry& e : table_) {
    if (fresh(e.rec)) {
      s.add(out, {e.id, e.rec.pos, /*oneHop=*/true}, e.rec.heard);
    }
  }
  for (const Entry& n : table_) {
    if (!fresh(n.rec)) continue;
    for (const HelloEntry& e : n.rec.reported) {
      if (e.id == self_) continue;
      const std::size_t i = s.find(e.id, out);
      if (i == out.size()) {
        s.add(out, {e.id, e.pos, /*oneHop=*/false}, e.heardAt);
      } else if (!out[i].oneHop && e.heardAt > s.heardAt[i]) {
        out[i].pos = e.pos;  // fresher 2-hop observation
        s.heardAt[i] = e.heardAt;
      }
    }
  }
}

}  // namespace glr::net
