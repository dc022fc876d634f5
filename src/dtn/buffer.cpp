#include "dtn/buffer.hpp"

#include <algorithm>
#include <cassert>

#include "checkpoint/message_codec.hpp"
#include "trace/recorder.hpp"

namespace glr::dtn {

MessageBuffer::MessageBuffer(std::size_t capacity, std::size_t expectedCopies)
    : capacity_(capacity), reserveHint_(expectedCopies) {}

MessageBuffer::Areas& MessageBuffer::areas() {
  if (areas_ != nullptr) return *areas_;
  // Deferred to the first insert: a city-scale world holds mostly idle
  // nodes whose buffers never see a message, and building (let alone
  // pre-sizing) their lists and tables up front costs hundreds of bytes
  // per node for structures that stay empty. The maps are pure key-lookup
  // indexes (list order drives every observable iteration), so when they
  // are built and reserved cannot affect results.
  areas_ = std::make_unique<Areas>();
  if (reserveHint_ != 0) {
    areas_->storeIndex.reserve(reserveHint_);
    areas_->cacheIndex.reserve(reserveHint_);
    areas_->branchCount.reserve(reserveHint_);
    reserveHint_ = 0;
  }
  return *areas_;
}

void MessageBuffer::Areas::indexStoreInsert(std::list<Message>::iterator it) {
  // A silent duplicate would desync index and list; every caller filters
  // duplicates via contains() first, so fail loudly if that ever changes.
  const bool inserted = storeIndex.emplace(it->key(), it).second;
  assert(inserted);
  (void)inserted;
  ++branchCount[it->id];
}

void MessageBuffer::Areas::indexStoreErase(std::list<Message>::iterator it) {
  storeIndex.erase(it->key());
  const auto bc = branchCount.find(it->id);
  if (--bc->second == 0) branchCount.erase(bc);
}

void MessageBuffer::Areas::indexCacheInsert(
    std::list<CacheEntry>::iterator it) {
  const bool inserted = cacheIndex.emplace(it->message.key(), it).second;
  assert(inserted);
  (void)inserted;
  ++branchCount[it->message.id];
}

void MessageBuffer::Areas::indexCacheErase(
    std::list<CacheEntry>::iterator it) {
  cacheIndex.erase(it->message.key());
  const auto bc = branchCount.find(it->message.id);
  if (--bc->second == 0) branchCount.erase(bc);
}

bool MessageBuffer::evictOne() {
  if (areas_ == nullptr) return false;
  Areas& a = *areas_;
  if (!a.cache.empty()) {
    if (trace_ != nullptr) {
      traceDrop(trace::EventType::kDrop, a.cache.front().message);
    }
    a.indexCacheErase(a.cache.begin());
    a.cache.pop_front();
    ++a.drops;
    return true;
  }
  if (!a.store.empty()) {
    if (trace_ != nullptr) traceDrop(trace::EventType::kDrop, a.store.front());
    a.indexStoreErase(a.store.begin());
    a.store.pop_front();
    ++a.drops;
    return true;
  }
  return false;
}

void MessageBuffer::traceDrop(trace::EventType type, const Message& m) {
  trace_->record(type, selfNode_, -1, m.id.src, m.id.seq, 0,
                 static_cast<std::uint8_t>(m.flag));
}

bool MessageBuffer::addToStore(Message m) {
  if (contains(m.key())) return false;
  while (size() >= capacity_) {
    if (!evictOne()) return false;  // capacity 0
  }
  Areas& a = areas();
  a.store.push_back(std::move(m));
  a.indexStoreInsert(std::prev(a.store.end()));
  a.peak = std::max(a.peak, size());
  return true;
}

bool MessageBuffer::moveToCache(const CopyKey& key, int nextHop,
                                sim::SimTime now) {
  if (areas_ == nullptr) return false;
  Areas& a = *areas_;
  const auto idx = a.storeIndex.find(key);
  if (idx == a.storeIndex.end()) return false;
  const auto it = idx->second;
  a.indexStoreErase(it);
  a.cache.push_back({std::move(*it), nextHop, now});
  a.store.erase(it);
  a.indexCacheInsert(std::prev(a.cache.end()));
  return true;
}

std::optional<Message> MessageBuffer::removeFromCache(const CopyKey& key) {
  if (areas_ == nullptr) return std::nullopt;
  Areas& a = *areas_;
  const auto idx = a.cacheIndex.find(key);
  if (idx == a.cacheIndex.end()) return std::nullopt;
  const auto it = idx->second;
  a.indexCacheErase(it);
  Message m = std::move(it->message);
  a.cache.erase(it);
  return m;
}

bool MessageBuffer::returnToStore(const CopyKey& key) {
  if (areas_ == nullptr) return false;
  Areas& a = *areas_;
  const auto idx = a.cacheIndex.find(key);
  if (idx == a.cacheIndex.end()) return false;
  const auto it = idx->second;
  a.indexCacheErase(it);
  a.store.push_back(std::move(it->message));
  a.cache.erase(it);
  a.indexStoreInsert(std::prev(a.store.end()));
  return true;
}

bool MessageBuffer::erase(const CopyKey& key) {
  if (areas_ == nullptr) return false;
  Areas& a = *areas_;
  if (const auto idx = a.storeIndex.find(key); idx != a.storeIndex.end()) {
    const auto it = idx->second;
    a.indexStoreErase(it);
    a.store.erase(it);
    return true;
  }
  if (const auto idx = a.cacheIndex.find(key); idx != a.cacheIndex.end()) {
    const auto it = idx->second;
    a.indexCacheErase(it);
    a.cache.erase(it);
    return true;
  }
  return false;
}

std::size_t MessageBuffer::eraseAllBranches(const MessageId& id) {
  if (!containsAnyBranch(id)) return 0;
  Areas& a = *areas_;
  std::size_t removed = 0;
  for (auto it = a.store.begin(); it != a.store.end();) {
    if (it->id == id) {
      a.indexStoreErase(it);
      it = a.store.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = a.cache.begin(); it != a.cache.end();) {
    if (it->message.id == id) {
      a.indexCacheErase(it);
      it = a.cache.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

bool MessageBuffer::inStore(const CopyKey& key) const {
  return areas_ != nullptr && areas_->storeIndex.contains(key);
}

bool MessageBuffer::inCache(const CopyKey& key) const {
  return areas_ != nullptr && areas_->cacheIndex.contains(key);
}

bool MessageBuffer::containsAnyBranch(const MessageId& id) const {
  return areas_ != nullptr && areas_->branchCount.contains(id);
}

Message* MessageBuffer::findInStore(const CopyKey& key) {
  if (areas_ == nullptr) return nullptr;
  const auto idx = areas_->storeIndex.find(key);
  return idx == areas_->storeIndex.end() ? nullptr : &*idx->second;
}

void MessageBuffer::forEachInStore(
    const std::function<void(Message&)>& fn) {
  if (areas_ == nullptr) return;
  for (Message& m : areas_->store) fn(m);
}

std::vector<CopyKey> MessageBuffer::storeKeys() const {
  std::vector<CopyKey> out;
  if (areas_ == nullptr) return out;
  out.reserve(areas_->store.size());
  for (const Message& m : areas_->store) out.push_back(m.key());
  return out;
}

std::optional<sim::SimTime> MessageBuffer::cacheEntrySentAt(
    const CopyKey& key) const {
  if (areas_ == nullptr) return std::nullopt;
  const auto idx = areas_->cacheIndex.find(key);
  if (idx == areas_->cacheIndex.end()) return std::nullopt;
  return idx->second->sentAt;
}

std::optional<int> MessageBuffer::cacheEntryNextHop(const CopyKey& key) const {
  if (areas_ == nullptr) return std::nullopt;
  const auto idx = areas_->cacheIndex.find(key);
  if (idx == areas_->cacheIndex.end()) return std::nullopt;
  return idx->second->nextHop;
}

std::size_t MessageBuffer::expireDue(sim::SimTime now) {
  if (areas_ == nullptr) return 0;
  Areas& a = *areas_;
  std::size_t removed = 0;
  for (auto it = a.store.begin(); it != a.store.end();) {
    if (it->expiresAt <= now) {
      if (trace_ != nullptr) traceDrop(trace::EventType::kExpiry, *it);
      a.indexStoreErase(it);
      it = a.store.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = a.cache.begin(); it != a.cache.end();) {
    if (it->message.expiresAt <= now) {
      if (trace_ != nullptr) traceDrop(trace::EventType::kExpiry, it->message);
      a.indexCacheErase(it);
      it = a.cache.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  a.expired += removed;
  return removed;
}

template <class Ar>
void MessageBuffer::visit(Ar& ar) {
  // u64, not bounded counts: capacity is kUnlimitedStorage (SIZE_MAX) by
  // default, and peak/reserveHint are counters. A buffer that never held a
  // message writes the empty areas it stands for, and restores as one.
  ar.expectEqual(capacity_, "buffer capacity");
  Areas none;
  Areas& a = Ar::kLoading ? none : (areas_ != nullptr ? *areas_ : none);
  ar.sequence(a.store, 16, [&](Message& m) { ckpt::visit(ar, m); });
  ar.sequence(a.cache, 16, [&](CacheEntry& entry) {
    ckpt::visit(ar, entry.message);
    ar.i32(entry.nextHop);
    ar.f64(entry.sentAt);
  });
  ar.u64(a.peak);
  ar.u64(a.drops);
  ar.u64(a.expired);
  ar.u64(reserveHint_);
  if constexpr (Ar::kLoading) {
    // Only a buffer that held a message has a nonzero peak. Rebuild the
    // lookup indexes over the restored lists, pre-sized for the restored
    // population (bucket counts are never observable).
    areas_.reset();
    if (a.peak == 0 && a.store.empty() && a.cache.empty() && a.drops == 0 &&
        a.expired == 0) {
      return;
    }
    areas_ = std::make_unique<Areas>(std::move(a));
    Areas& built = *areas_;
    built.storeIndex.reserve(built.store.size());
    built.cacheIndex.reserve(built.cache.size());
    built.branchCount.reserve(built.store.size() + built.cache.size());
    for (auto it = built.store.begin(); it != built.store.end(); ++it) {
      if (built.contains(it->key())) {
        ar.fail("duplicate copy key in restored store");
      }
      built.indexStoreInsert(it);
    }
    for (auto it = built.cache.begin(); it != built.cache.end(); ++it) {
      if (built.contains(it->message.key())) {
        ar.fail("duplicate copy key in restored cache");
      }
      built.indexCacheInsert(it);
    }
  }
}

template void MessageBuffer::visit(ckpt::Encoder&);
template void MessageBuffer::visit(ckpt::Decoder&);

std::vector<CopyKey> MessageBuffer::cachedSentBefore(
    sim::SimTime before) const {
  std::vector<CopyKey> out;
  if (areas_ == nullptr) return out;
  for (const CacheEntry& e : areas_->cache) {
    if (e.sentAt < before) out.push_back(e.message.key());
  }
  return out;
}

}  // namespace glr::dtn
