#include "dtn/buffer.hpp"

#include <algorithm>
#include <cassert>

#include "checkpoint/message_codec.hpp"
#include "trace/recorder.hpp"

namespace glr::dtn {

MessageBuffer::MessageBuffer(std::size_t capacity, std::size_t expectedCopies)
    : capacity_(capacity), reserveHint_(expectedCopies) {}

void MessageBuffer::applyReserveHint() {
  // Deferred to the first insert: a city-scale world holds mostly idle
  // nodes whose buffers never see a message — pre-sizing those up front
  // costs ~0.5 KB per node for tables that stay empty. The maps are pure
  // key-lookup indexes (list order drives every observable iteration), so
  // when the reserve happens cannot affect results.
  if (reserveHint_ == 0) return;
  storeIndex_.reserve(reserveHint_);
  cacheIndex_.reserve(reserveHint_);
  branchCount_.reserve(reserveHint_);
  reserveHint_ = 0;
}

void MessageBuffer::notePeak() { peak_ = std::max(peak_, size()); }

void MessageBuffer::indexStoreInsert(std::list<Message>::iterator it) {
  // A silent duplicate would desync index and list; every caller filters
  // duplicates via contains() first, so fail loudly if that ever changes.
  const bool inserted = storeIndex_.emplace(it->key(), it).second;
  assert(inserted);
  (void)inserted;
  ++branchCount_[it->id];
}

void MessageBuffer::indexStoreErase(std::list<Message>::iterator it) {
  storeIndex_.erase(it->key());
  const auto bc = branchCount_.find(it->id);
  if (--bc->second == 0) branchCount_.erase(bc);
}

void MessageBuffer::indexCacheInsert(std::list<CacheEntry>::iterator it) {
  const bool inserted = cacheIndex_.emplace(it->message.key(), it).second;
  assert(inserted);
  (void)inserted;
  ++branchCount_[it->message.id];
}

void MessageBuffer::indexCacheErase(std::list<CacheEntry>::iterator it) {
  cacheIndex_.erase(it->message.key());
  const auto bc = branchCount_.find(it->message.id);
  if (--bc->second == 0) branchCount_.erase(bc);
}

bool MessageBuffer::evictOne() {
  if (!cache_.empty()) {
    if (trace_ != nullptr) traceDrop(trace::EventType::kDrop, cache_.front().message);
    indexCacheErase(cache_.begin());
    cache_.pop_front();
    ++drops_;
    return true;
  }
  if (!store_.empty()) {
    if (trace_ != nullptr) traceDrop(trace::EventType::kDrop, store_.front());
    indexStoreErase(store_.begin());
    store_.pop_front();
    ++drops_;
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
  applyReserveHint();
  store_.push_back(std::move(m));
  indexStoreInsert(std::prev(store_.end()));
  notePeak();
  return true;
}

bool MessageBuffer::moveToCache(const CopyKey& key, int nextHop,
                                sim::SimTime now) {
  const auto idx = storeIndex_.find(key);
  if (idx == storeIndex_.end()) return false;
  const auto it = idx->second;
  indexStoreErase(it);
  cache_.push_back({std::move(*it), nextHop, now});
  store_.erase(it);
  indexCacheInsert(std::prev(cache_.end()));
  return true;
}

std::optional<Message> MessageBuffer::removeFromCache(const CopyKey& key) {
  const auto idx = cacheIndex_.find(key);
  if (idx == cacheIndex_.end()) return std::nullopt;
  const auto it = idx->second;
  indexCacheErase(it);
  Message m = std::move(it->message);
  cache_.erase(it);
  return m;
}

bool MessageBuffer::returnToStore(const CopyKey& key) {
  const auto idx = cacheIndex_.find(key);
  if (idx == cacheIndex_.end()) return false;
  const auto it = idx->second;
  indexCacheErase(it);
  store_.push_back(std::move(it->message));
  cache_.erase(it);
  indexStoreInsert(std::prev(store_.end()));
  return true;
}

bool MessageBuffer::erase(const CopyKey& key) {
  if (const auto idx = storeIndex_.find(key); idx != storeIndex_.end()) {
    const auto it = idx->second;
    indexStoreErase(it);
    store_.erase(it);
    return true;
  }
  if (const auto idx = cacheIndex_.find(key); idx != cacheIndex_.end()) {
    const auto it = idx->second;
    indexCacheErase(it);
    cache_.erase(it);
    return true;
  }
  return false;
}

std::size_t MessageBuffer::eraseAllBranches(const MessageId& id) {
  if (branchCount_.find(id) == branchCount_.end()) return 0;
  std::size_t removed = 0;
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->id == id) {
      indexStoreErase(it);
      it = store_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->message.id == id) {
      indexCacheErase(it);
      it = cache_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

bool MessageBuffer::inStore(const CopyKey& key) const {
  return storeIndex_.find(key) != storeIndex_.end();
}

bool MessageBuffer::inCache(const CopyKey& key) const {
  return cacheIndex_.find(key) != cacheIndex_.end();
}

bool MessageBuffer::containsAnyBranch(const MessageId& id) const {
  return branchCount_.find(id) != branchCount_.end();
}

Message* MessageBuffer::findInStore(const CopyKey& key) {
  const auto idx = storeIndex_.find(key);
  return idx == storeIndex_.end() ? nullptr : &*idx->second;
}

void MessageBuffer::forEachInStore(
    const std::function<void(Message&)>& fn) {
  for (Message& m : store_) fn(m);
}

std::vector<CopyKey> MessageBuffer::storeKeys() const {
  std::vector<CopyKey> out;
  out.reserve(store_.size());
  for (const Message& m : store_) out.push_back(m.key());
  return out;
}

std::optional<sim::SimTime> MessageBuffer::cacheEntrySentAt(
    const CopyKey& key) const {
  const auto idx = cacheIndex_.find(key);
  if (idx == cacheIndex_.end()) return std::nullopt;
  return idx->second->sentAt;
}

std::optional<int> MessageBuffer::cacheEntryNextHop(const CopyKey& key) const {
  const auto idx = cacheIndex_.find(key);
  if (idx == cacheIndex_.end()) return std::nullopt;
  return idx->second->nextHop;
}

std::size_t MessageBuffer::expireDue(sim::SimTime now) {
  std::size_t removed = 0;
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->expiresAt <= now) {
      if (trace_ != nullptr) traceDrop(trace::EventType::kExpiry, *it);
      indexStoreErase(it);
      it = store_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->message.expiresAt <= now) {
      if (trace_ != nullptr) traceDrop(trace::EventType::kExpiry, it->message);
      indexCacheErase(it);
      it = cache_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  expired_ += removed;
  return removed;
}

template <class Ar>
void MessageBuffer::visit(Ar& ar) {
  // u64, not bounded counts: capacity is kUnlimitedStorage (SIZE_MAX) by
  // default, and peak/reserveHint are counters.
  ar.expectEqual(capacity_, "buffer capacity");
  ar.sequence(store_, 16, [&](Message& m) { ckpt::visit(ar, m); });
  ar.sequence(cache_, 16, [&](CacheEntry& entry) {
    ckpt::visit(ar, entry.message);
    ar.i32(entry.nextHop);
    ar.f64(entry.sentAt);
  });
  ar.u64(peak_);
  ar.u64(drops_);
  ar.u64(expired_);
  ar.u64(reserveHint_);
  if constexpr (Ar::kLoading) {
    // Rebuild the lookup indexes over the restored lists, pre-sized for
    // the restored population (bucket counts are never observable).
    storeIndex_.clear();
    cacheIndex_.clear();
    branchCount_.clear();
    storeIndex_.reserve(store_.size());
    cacheIndex_.reserve(cache_.size());
    branchCount_.reserve(store_.size() + cache_.size());
    for (auto it = store_.begin(); it != store_.end(); ++it) {
      if (contains(it->key())) ar.fail("duplicate copy key in restored store");
      indexStoreInsert(it);
    }
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (contains(it->message.key())) {
        ar.fail("duplicate copy key in restored cache");
      }
      indexCacheInsert(it);
    }
  }
}

template void MessageBuffer::visit(ckpt::Encoder&);
template void MessageBuffer::visit(ckpt::Decoder&);

std::vector<CopyKey> MessageBuffer::cachedSentBefore(
    sim::SimTime before) const {
  std::vector<CopyKey> out;
  for (const CacheEntry& e : cache_) {
    if (e.sentAt < before) out.push_back(e.message.key());
  }
  return out;
}

}  // namespace glr::dtn
