// Unit tests for common::FlatMap, the open-addressing table behind the
// oracle's location map, the object store, the multicast dedupe set and
// the servers' per-command coordination records.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"

namespace dynastar::common {
namespace {

TEST(FlatMap, ChurnKeepsCapacityBounded) {
  // Distinct keys pass through while at most 8 are live at a time: the
  // table must purge tombstones in place instead of doubling on every
  // load-factor crossing.
  FlatMap<std::uint64_t, std::uint64_t, Mix64Hash> map;
  for (std::uint64_t k = 0; k < 1'000'000; ++k) {
    map[k] = k;
    if (k >= 7) map.erase(k - 7);
    ASSERT_LE(map.size(), 8u);
  }
  EXPECT_EQ(map.size(), 7u);
  EXPECT_LE(map.capacity(), 64u);
  for (std::uint64_t k = 1'000'000 - 7; k < 1'000'000; ++k)
    EXPECT_EQ(map.at(k), k);
}

TEST(FlatMap, GrowsWhenLiveEntriesFillTheTable) {
  FlatMap<std::uint64_t, int, Mix64Hash> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_GE(map.capacity() * 3, map.size() * 4);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(map.contains(k));
}

TEST(FlatMap, EraseLeavesOtherIteratorsValid) {
  FlatMap<std::uint64_t, std::uint64_t, Mix64Hash> map;
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = k * 10;
  std::vector<FlatMap<std::uint64_t, std::uint64_t, Mix64Hash>::iterator> odd;
  for (std::uint64_t k = 1; k < 100; k += 2) odd.push_back(map.find(k));
  for (std::uint64_t k = 0; k < 100; k += 2) map.erase(map.find(k));
  EXPECT_EQ(map.size(), 50u);
  std::uint64_t k = 1;
  for (const auto& it : odd) {
    EXPECT_EQ(it->first, k);
    EXPECT_EQ(it->second, k * 10);
    k += 2;
  }
  // Erase-while-iterating visits every survivor exactly once.
  std::set<std::uint64_t> visited;
  for (auto it = map.begin(); it != map.end();) {
    visited.insert(it->first);
    if (it->first % 4 == 1)
      it = map.erase(it);
    else
      ++it;
  }
  EXPECT_EQ(visited.size(), 50u);
  EXPECT_EQ(map.size(), 25u);
  for (const auto& [key, value] : map) EXPECT_EQ(key % 4, 3u);
}

TEST(FlatMap, EraseReleasesNonTrivialValues) {
  auto shared = std::make_shared<int>(7);
  FlatMap<std::uint64_t, std::shared_ptr<int>, Mix64Hash> ptrs;
  ptrs[1] = shared;
  ptrs[2] = shared;
  EXPECT_EQ(shared.use_count(), 3);
  ptrs.erase(1);
  EXPECT_EQ(shared.use_count(), 2);
  ptrs.erase(ptrs.find(2));
  EXPECT_EQ(shared.use_count(), 1);
  ptrs[3] = shared;
  ptrs.clear();
  EXPECT_EQ(shared.use_count(), 1);

  // A re-inserted key starts from a fresh value, not the erased one.
  FlatMap<std::uint64_t, std::map<int, int>, Mix64Hash> nested;
  nested[5][1] = 1;
  nested[5][2] = 2;
  nested.erase(5);
  EXPECT_TRUE(nested[5].empty());
}

TEST(FlatMap, CopyIsIndependentOfTheOriginal) {
  FlatMap<std::uint64_t, std::map<int, int>, Mix64Hash> live;
  for (std::uint64_t k = 0; k < 50; ++k) live[k][0] = static_cast<int>(k);
  const auto snapshot = live;
  for (std::uint64_t k = 0; k < 50; k += 2) live.erase(k);
  for (std::uint64_t k = 1; k < 50; k += 2) live[k][0] = -1;
  for (std::uint64_t k = 50; k < 200; ++k) live[k][0] = 0;  // forces a rehash
  ASSERT_EQ(snapshot.size(), 50u);
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(snapshot.contains(k));
    EXPECT_EQ(snapshot.at(k).at(0), static_cast<int>(k));
  }
  EXPECT_FALSE(snapshot.contains(100));
}

TEST(FlatMap, StructuredUidKeysSpreadUnderTheMixingHash) {
  // Multicast uids are (sender << 32) | seq: the low bits carry only the
  // sequence number, so without mixing every sender's n-th message would
  // share a home slot.
  FlatMap<std::uint64_t, std::uint64_t, Mix64Hash> map;
  std::vector<std::uint64_t> uids;
  for (std::uint64_t sender = 1; sender <= 16; ++sender)
    for (std::uint64_t seq = 1; seq <= 1000; ++seq)
      uids.push_back((sender << 32) | seq);
  for (std::uint64_t uid : uids) map.emplace(uid, uid >> 32);
  ASSERT_EQ(map.size(), uids.size());
  for (std::uint64_t uid : uids) EXPECT_EQ(map.at(uid), uid >> 32);

  const std::size_t mask = map.capacity() - 1;
  std::set<std::size_t> mixed_homes;
  std::set<std::size_t> identity_homes;
  for (std::uint64_t uid : uids) {
    mixed_homes.insert(Mix64Hash{}(uid)&mask);
    identity_homes.insert(static_cast<std::size_t>(uid) & mask);
  }
  EXPECT_EQ(identity_homes.size(), 1000u);  // the clustering being avoided
  EXPECT_GT(mixed_homes.size(), uids.size() / 2);

  for (std::uint64_t uid : uids)
    if (uid & 1) map.erase(uid);
  EXPECT_EQ(map.size(), uids.size() / 2);
  for (std::uint64_t uid : uids) EXPECT_EQ(map.contains(uid), (uid & 1) == 0);
}

TEST(FlatMap, StrongIdHashIsMix64) {
  for (std::uint64_t v : {0ull, 1ull, 42ull, 1ull << 40})
    EXPECT_EQ(std::hash<ObjectId>{}(ObjectId{v}),
              static_cast<std::size_t>(mix64(v)));
}

}  // namespace
}  // namespace dynastar::common
