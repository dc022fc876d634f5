#include "net/neighbor.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/message_codec.hpp"

namespace glr::net {

namespace {

sim::EventDesc helloDesc(int self) {
  sim::EventDesc d;
  d.kind = ckpt::kHello;
  d.i0 = self;
  return d;
}

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
                                 std::function<geom::Point2()> myPosition,
                                 Params params, sim::Rng rng)
    : sim_(sim),
      mac_(mac),
      self_(self),
      myPosition_(std::move(myPosition)),
      params_(params),
      rng_(rng) {
  if (!myPosition_) {
    throw std::invalid_argument{"NeighborService: myPosition required"};
  }
  if (params_.helloInterval <= 0.0 || params_.expiry <= 0.0) {
    throw std::invalid_argument{"NeighborService: bad interval/expiry"};
  }
  // Size the 1-hop table for the expected neighborhood up front so the
  // per-hello inserts on the hot path never rehash.
  table_.reserve(params_.expectedNeighbors);
}

bool NeighborService::fresh(const NeighborRecord& r) const {
  return sim_.now() - r.heard <= params_.expiry;
}

void NeighborService::start() {
  // Desynchronize: first beacon at a uniform offset inside one interval.
  sim_.schedule(rng_.uniform(0.0, params_.helloInterval), helloDesc(self_),
                [this] { sendHello(); });
}

void NeighborService::sendHello() {
  // The payload block comes from the per-thread hello arena: `neighbors` is
  // the recycled block's own vector, so clear() + refill is the reused
  // scratch buffer — its capacity persists across beacons and the refill
  // never allocates once the neighborhood size has been seen.
  Payload payload = Payload::create<HelloPayload>();
  HelloPayload& hello = payload.mutableValue<HelloPayload>();
  hello.id = self_;
  hello.pos = myPosition_();
  hello.sentAt = sim_.now();
  hello.neighbors.clear();
  std::size_t bytes = params_.baseBytes;
  const double evictHorizon = params_.evictAfterFactor > 0.0
                                  ? params_.evictAfterFactor * params_.expiry
                                  : 0.0;
  for (auto it = table_.begin(); it != table_.end();) {
    NeighborRecord& rec = it->second;
    if (fresh(rec)) {
      if (params_.includeNeighborList) {
        hello.neighbors.push_back({it->first, rec.pos, rec.heard});
        bytes += params_.perNeighborBytes;
      }
      ++it;
      continue;
    }
    // Stale record. Its `reported` list is dead weight: no reader looks at
    // a stale record's entries, and a future hello from this id overwrites
    // them — so freeing the heap now is observation-equivalent and keeps
    // long runs from accumulating one 2-hop snapshot per node ever heard.
    if (!rec.reported.empty()) {
      rec.reported.clear();
      rec.reported.shrink_to_fit();
    }
    if (evictHorizon > 0.0 &&
        sim_.now() - rec.heard > params_.expiry + evictHorizon) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  Packet p;
  p.bytes = bytes;
  p.kind = kHelloKind;
  p.payload = std::move(payload);
  if (!mac_.send(std::move(p), kBroadcast)) ++helloSendFailures_;
  ++hellosSent_;

  // Jittered periodic re-beacon (+/-10%) to avoid phase locking.
  const double next =
      params_.helloInterval * rng_.uniform(0.9, 1.1);
  sim_.schedule(next, helloDesc(self_), [this] { sendHello(); });
}

template <class Ar>
void HelloPayload::Entry::visit(Ar& ar) {
  ar.i32(id);
  ckpt::visit(ar, pos);
  ar.f64(heardAt);
}

template <class Ar>
void NeighborService::visit(Ar& ar) {
  ar.rng(rng_);
  ar.unorderedMap(table_, [&](int& id, NeighborRecord& rec) {
    ar.i32(id);
    ckpt::visit(ar, rec.pos);
    ar.f64(rec.heard);
    ar.sequence(rec.reported, 20,
                [&](HelloPayload::Entry& entry) { entry.visit(ar); });
  });
  ar.u64(hellosSent_);
  ar.u64(hellosReceived_);
  ar.u64(helloSendFailures_);
}

template void HelloPayload::Entry::visit(ckpt::Encoder&);
template void HelloPayload::Entry::visit(ckpt::Decoder&);
template void NeighborService::visit(ckpt::Encoder&);
template void NeighborService::visit(ckpt::Decoder&);

void NeighborService::restoreHelloEvent(const sim::EventKey& key) {
  sim_.scheduleKeyed(key, helloDesc(self_), [this] { sendHello(); });
}

bool NeighborService::handlePacket(const Packet& packet, int /*fromMac*/) {
  if (packet.kind != kHelloKind) return false;
  const auto* hello = packet.payload.get<HelloPayload>();
  if (hello == nullptr) return false;
  ++hellosReceived_;

  NeighborRecord& rec = table_[hello->id];
  const bool wasFresh = fresh(rec);
  rec.pos = hello->pos;
  rec.heard = sim_.now();
  rec.reported = hello->neighbors;

  if (onLocationSample_) {
    onLocationSample_(hello->id, hello->pos, hello->sentAt);
    for (const auto& e : hello->neighbors) {
      if (e.id != self_) onLocationSample_(e.id, e.pos, e.heardAt);
    }
  }
  if (!wasFresh && onContact_) onContact_(hello->id);
  return true;
}

std::vector<int> NeighborService::currentNeighbors() const {
  std::vector<int> out;
  out.reserve(table_.size());
  for (const auto& [id, rec] : table_) {
    if (fresh(rec)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool NeighborService::isNeighbor(int id) const {
  const auto it = table_.find(id);
  return it != table_.end() && fresh(it->second);
}

std::optional<geom::Point2> NeighborService::neighborPosition(int id) const {
  const auto it = table_.find(id);
  if (it == table_.end() || !fresh(it->second)) return std::nullopt;
  return it->second.pos;
}

void NeighborService::knowledge(std::vector<spanner::KnownNode>& out) const {
  KnowledgeScratch& s = knowledgeScratch();
  s.begin();
  out.clear();
  for (const auto& [id, rec] : table_) {
    if (fresh(rec)) s.add(out, {id, rec.pos, /*oneHop=*/true}, rec.heard);
  }
  for (const auto& [id, rec] : table_) {
    if (!fresh(rec)) continue;
    for (const auto& e : rec.reported) {
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
