// Tests for DTN message management: Store/Cache custody semantics, the
// paper's eviction policy (cache dropped first, FIFO within area), peak
// tracking, the never-filled buffer (whose areas are built at the first
// insert), the buffer's checkpoint round trip, and the location table's
// freshest-wins rule, never-updated state (its map is built at the first
// update) and checkpoint round trip.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "checkpoint/codec.hpp"
#include "dtn/buffer.hpp"
#include "dtn/location_table.hpp"
#include "dtn/message.hpp"

namespace {

using glr::dtn::CopyKey;
using glr::dtn::LocationTable;
using glr::dtn::Message;
using glr::dtn::MessageBuffer;
using glr::dtn::MessageId;
using glr::dtn::TreeFlag;

Message makeMsg(int src, int seq, TreeFlag flag = TreeFlag::kNone) {
  Message m;
  m.id = {src, seq};
  m.srcNode = src;
  m.dstNode = 99;
  m.flag = flag;
  return m;
}

TEST(Buffer, AddAndContains) {
  MessageBuffer b;
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1)));
  EXPECT_TRUE(b.inStore(makeMsg(1, 1).key()));
  EXPECT_FALSE(b.inCache(makeMsg(1, 1).key()));
  EXPECT_EQ(b.storeSize(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Buffer, DuplicateCopyRejected) {
  MessageBuffer b;
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1, TreeFlag::kMax)));
  EXPECT_FALSE(b.addToStore(makeMsg(1, 1, TreeFlag::kMax)));
  // Different branch of the same message is a distinct copy.
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1, TreeFlag::kMin)));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.containsAnyBranch({1, 1}));
}

TEST(Buffer, CustodyRoundTrip) {
  MessageBuffer b;
  const CopyKey k = makeMsg(1, 1, TreeFlag::kMax).key();
  b.addToStore(makeMsg(1, 1, TreeFlag::kMax));

  EXPECT_TRUE(b.moveToCache(k, /*nextHop=*/5, /*now=*/10.0));
  EXPECT_FALSE(b.inStore(k));
  EXPECT_TRUE(b.inCache(k));
  EXPECT_EQ(b.size(), 1u);  // custody copy still occupies storage

  const auto removed = b.removeFromCache(k);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, (MessageId{1, 1}));
  EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, ReturnToStoreOnTimeout) {
  MessageBuffer b;
  const CopyKey k = makeMsg(1, 1).key();
  b.addToStore(makeMsg(1, 1));
  b.moveToCache(k, 5, 10.0);
  EXPECT_TRUE(b.returnToStore(k));
  EXPECT_TRUE(b.inStore(k));
  EXPECT_FALSE(b.inCache(k));
  // Second return is a no-op.
  EXPECT_FALSE(b.returnToStore(k));
}

TEST(Buffer, MoveMissingFails) {
  MessageBuffer b;
  EXPECT_FALSE(b.moveToCache(makeMsg(9, 9).key(), 1, 0.0));
  EXPECT_FALSE(b.removeFromCache(makeMsg(9, 9).key()).has_value());
  EXPECT_FALSE(b.erase(makeMsg(9, 9).key()));
}

TEST(Buffer, CachedSentBefore) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  b.moveToCache(makeMsg(1, 1).key(), 5, 10.0);
  b.moveToCache(makeMsg(1, 2).key(), 5, 20.0);
  const auto old = b.cachedSentBefore(15.0);
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(old[0].id, (MessageId{1, 1}));
}

TEST(Buffer, EvictionDropsCacheFirstThenFifoStore) {
  MessageBuffer b{3};
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  b.addToStore(makeMsg(1, 3));
  b.moveToCache(makeMsg(1, 2).key(), 7, 1.0);

  // Buffer full (3): adding a 4th drops the cached copy first.
  EXPECT_TRUE(b.addToStore(makeMsg(1, 4)));
  EXPECT_FALSE(b.containsAnyBranch({1, 2}));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.dropCount(), 1u);

  // No cache left: next eviction takes the oldest store entry (1,1).
  EXPECT_TRUE(b.addToStore(makeMsg(1, 5)));
  EXPECT_FALSE(b.containsAnyBranch({1, 1}));
  EXPECT_TRUE(b.containsAnyBranch({1, 3}));
  EXPECT_EQ(b.dropCount(), 2u);
}

TEST(Buffer, ZeroCapacityRejects) {
  MessageBuffer b{0};
  EXPECT_FALSE(b.addToStore(makeMsg(1, 1)));
  EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, PeakTracksHighWaterMark) {
  MessageBuffer b;
  for (int i = 0; i < 5; ++i) b.addToStore(makeMsg(1, i));
  EXPECT_EQ(b.peakSize(), 5u);
  b.erase(makeMsg(1, 0).key());
  b.erase(makeMsg(1, 1).key());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.peakSize(), 5u);  // peak is sticky
  for (int i = 5; i < 12; ++i) b.addToStore(makeMsg(1, i));
  EXPECT_EQ(b.peakSize(), 10u);
}

TEST(Buffer, StoreKeysFifoOrder) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 3));
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  const auto keys = b.storeKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].id.seq, 3);
  EXPECT_EQ(keys[1].id.seq, 1);
  EXPECT_EQ(keys[2].id.seq, 2);
}

TEST(Buffer, FindInStoreAllowsHeaderUpdates) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 1));
  Message* m = b.findInStore(makeMsg(1, 1).key());
  ASSERT_NE(m, nullptr);
  m->destLoc = {42.0, 7.0};
  m->destLocKnown = true;
  EXPECT_EQ(b.findInStore(makeMsg(1, 1).key())->destLoc.x, 42.0);
  EXPECT_EQ(b.findInStore(makeMsg(9, 9).key()), nullptr);
}

TEST(Buffer, NeverFilledBufferAnswersEveryQuery) {
  MessageBuffer b{10, 64};
  const CopyKey key = makeMsg(1, 1).key();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.storeSize(), 0u);
  EXPECT_EQ(b.cacheSize(), 0u);
  EXPECT_EQ(b.peakSize(), 0u);
  EXPECT_EQ(b.dropCount(), 0u);
  EXPECT_EQ(b.expiredCount(), 0u);
  EXPECT_FALSE(b.contains(key));
  EXPECT_FALSE(b.containsAnyBranch(key.id));
  EXPECT_EQ(b.findInStore(key), nullptr);
  EXPECT_TRUE(b.storeKeys().empty());
  EXPECT_TRUE(b.cachedSentBefore(1e9).empty());
  EXPECT_FALSE(b.cacheEntrySentAt(key).has_value());
  EXPECT_FALSE(b.cacheEntryNextHop(key).has_value());
  EXPECT_FALSE(b.moveToCache(key, 2, 1.0));
  EXPECT_FALSE(b.removeFromCache(key).has_value());
  EXPECT_FALSE(b.returnToStore(key));
  EXPECT_FALSE(b.erase(key));
  EXPECT_EQ(b.eraseAllBranches(key.id), 0u);
  EXPECT_EQ(b.expireDue(1e9), 0u);
  int visited = 0;
  b.forEachInStore([&](Message&) { ++visited; });
  EXPECT_EQ(visited, 0);
  // The first insert builds the areas.
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1)));
  EXPECT_TRUE(b.inStore(key));
  EXPECT_EQ(b.peakSize(), 1u);
}

/// Encodes `b`'s checkpoint state.
std::vector<unsigned char> snapshot(MessageBuffer& b) {
  glr::ckpt::Encoder e;
  b.visit(e);
  return e.take();
}

/// Restores `bytes` into a fresh buffer of the same capacity.
MessageBuffer restored(const std::vector<unsigned char>& bytes,
                       std::size_t capacity) {
  MessageBuffer b{capacity};
  glr::ckpt::Decoder d{bytes.data(), bytes.size(), "buffer test"};
  b.visit(d);
  d.expectEnd();
  return b;
}

TEST(Buffer, CheckpointRoundTripsNeverFilledAndUsedBuffers) {
  // Never filled: the reserve hint is still pending, and survives.
  MessageBuffer idle{10, 64};
  const auto idleBytes = snapshot(idle);
  MessageBuffer idleBack = restored(idleBytes, 10);
  EXPECT_EQ(snapshot(idleBack), idleBytes);
  EXPECT_EQ(idleBack.size(), 0u);

  // Used: a stored copy, a cached one, and an emptied third.
  MessageBuffer used{10, 64};
  used.addToStore(makeMsg(1, 1));
  used.addToStore(makeMsg(2, 1, TreeFlag::kMin));
  used.addToStore(makeMsg(3, 1));
  used.moveToCache(makeMsg(2, 1, TreeFlag::kMin).key(), 7, 4.5);
  used.erase(makeMsg(3, 1).key());
  const auto usedBytes = snapshot(used);
  MessageBuffer usedBack = restored(usedBytes, 10);
  EXPECT_EQ(snapshot(usedBack), usedBytes);
  EXPECT_TRUE(usedBack.inStore(makeMsg(1, 1).key()));
  EXPECT_EQ(usedBack.cacheEntryNextHop(makeMsg(2, 1, TreeFlag::kMin).key()),
            7);
  EXPECT_EQ(usedBack.peakSize(), 3u);

  // Used, then emptied: its peak keeps the areas it had.
  used.erase(makeMsg(1, 1).key());
  used.erase(makeMsg(2, 1, TreeFlag::kMin).key());
  const auto emptiedBytes = snapshot(used);
  MessageBuffer emptiedBack = restored(emptiedBytes, 10);
  EXPECT_EQ(snapshot(emptiedBack), emptiedBytes);
  EXPECT_EQ(emptiedBack.size(), 0u);
  EXPECT_EQ(emptiedBack.peakSize(), 3u);
}

TEST(LocationTable, FreshestWins) {
  LocationTable t;
  EXPECT_TRUE(t.update(1, {0, 0}, 10.0));
  EXPECT_FALSE(t.update(1, {5, 5}, 5.0));  // stale: rejected
  EXPECT_EQ(t.lookup(1)->pos.x, 0.0);
  EXPECT_TRUE(t.update(1, {9, 9}, 20.0));
  EXPECT_EQ(t.lookup(1)->pos.x, 9.0);
  EXPECT_EQ(t.lookup(1)->at, 20.0);
}

TEST(LocationTable, NeverUpdatedTableAnswersEveryQuery) {
  LocationTable t;
  EXPECT_FALSE(t.lookup(7).has_value());
  EXPECT_EQ(t.size(), 0u);
  t.prune(1e9);
  EXPECT_EQ(t.size(), 0u);
  // Its snapshot is that of an empty map.
  std::unordered_map<int, LocationTable::Entry> none;
  glr::ckpt::Encoder empty;
  empty.unorderedMap(none, [](int&, LocationTable::Entry&) {});
  glr::ckpt::Encoder e;
  t.visit(e);
  EXPECT_EQ(e.data(), empty.data());
  // The first update builds the map.
  EXPECT_TRUE(t.update(7, {1, 2}, 3.0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(7)->at, 3.0);
}

/// Encodes `t`'s checkpoint state.
std::vector<unsigned char> snapshot(LocationTable& t) {
  glr::ckpt::Encoder e;
  t.visit(e);
  return e.take();
}

/// Restores `bytes` into `t`.
void restore(LocationTable& t, const std::vector<unsigned char>& bytes) {
  glr::ckpt::Decoder d{bytes.data(), bytes.size(), "location table test"};
  t.visit(d);
  d.expectEnd();
}

TEST(LocationTable, CheckpointRoundTripsNeverUpdatedUsedAndPrunedTables) {
  LocationTable idle;
  const auto idleBytes = snapshot(idle);
  LocationTable idleBack;
  restore(idleBack, idleBytes);
  EXPECT_EQ(snapshot(idleBack), idleBytes);
  EXPECT_EQ(idleBack.size(), 0u);

  LocationTable used;
  used.update(1, {10, 20}, 5.0);
  used.update(2, {30, 40}, 8.0);
  const auto usedBytes = snapshot(used);
  LocationTable usedBack;
  restore(usedBack, usedBytes);
  EXPECT_EQ(snapshot(usedBack), usedBytes);
  EXPECT_EQ(usedBack.lookup(2)->pos.y, 40.0);

  // Updated, then pruned to empty: the map keeps its buckets, so it
  // restores as built, not as the never-updated table.
  used.prune(10.0);
  EXPECT_EQ(used.size(), 0u);
  const auto prunedBytes = snapshot(used);
  EXPECT_NE(prunedBytes, idleBytes);
  LocationTable prunedBack;
  restore(prunedBack, prunedBytes);
  EXPECT_EQ(snapshot(prunedBack), prunedBytes);
  EXPECT_EQ(prunedBack.size(), 0u);
  EXPECT_FALSE(prunedBack.lookup(1).has_value());
}

TEST(CopyKey, OrderingAndHash) {
  const CopyKey a{{1, 1}, TreeFlag::kMax};
  const CopyKey b{{1, 1}, TreeFlag::kMin};
  const CopyKey c{{1, 2}, TreeFlag::kMax};
  EXPECT_NE(a, b);
  EXPECT_LT(a.id, c.id);
  EXPECT_NE(std::hash<CopyKey>{}(a), std::hash<CopyKey>{}(b));
}

}  // namespace
