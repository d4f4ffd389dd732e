// Unit tests for core building blocks that don't need the full stack:
// ObjectStore, target choice, and protocol message invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/object.h"
#include "core/protocol.h"
#include "core/server.h"
#include "workloads/kv.h"

namespace dynastar::core {
namespace {

using workloads::KvObject;

TEST(ObjectStore, PutFindTake) {
  ObjectStore store;
  store.put(ObjectId{1}, VertexId{10}, std::make_shared<KvObject>(5));
  ASSERT_TRUE(store.contains(ObjectId{1}));
  auto* obj = dynamic_cast<KvObject*>(store.find(ObjectId{1}));
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value, 5u);
  EXPECT_EQ(store.vertex_of(ObjectId{1}), VertexId{10});

  auto taken = store.take(ObjectId{1});
  EXPECT_NE(taken, nullptr);
  EXPECT_FALSE(store.contains(ObjectId{1}));
  EXPECT_EQ(store.take(ObjectId{1}), nullptr);
}

TEST(ObjectStore, VertexIndexTracksMembership) {
  ObjectStore store;
  store.put(ObjectId{1}, VertexId{7}, std::make_shared<KvObject>(1));
  store.put(ObjectId{2}, VertexId{7}, std::make_shared<KvObject>(2));
  store.put(ObjectId{3}, VertexId{8}, std::make_shared<KvObject>(3));
  auto v7 = store.objects_of_vertex(VertexId{7});
  EXPECT_EQ(v7.size(), 2u);
  store.take(ObjectId{1});
  EXPECT_EQ(store.objects_of_vertex(VertexId{7}).size(), 1u);
  EXPECT_TRUE(store.objects_of_vertex(VertexId{99}).empty());
}

TEST(ObjectStore, PutRehomesVertex) {
  ObjectStore store;
  store.put(ObjectId{1}, VertexId{7}, std::make_shared<KvObject>(1));
  store.put(ObjectId{1}, VertexId{8}, std::make_shared<KvObject>(2));
  EXPECT_TRUE(store.objects_of_vertex(VertexId{7}).empty());
  EXPECT_EQ(store.objects_of_vertex(VertexId{8}).size(), 1u);
  EXPECT_EQ(store.vertex_of(ObjectId{1}), VertexId{8});
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, ChurnKeepsIndexesExact) {
  // Borrow/return moves the same ids out and back in on every
  // multi-partition command; occasionally a vertex is re-homed, as a
  // repartitioning plan does. Both indexes must track a reference model
  // exactly, however long the history.
  constexpr std::uint64_t kObjects = 64;
  constexpr std::uint64_t kVertices = 8;
  ObjectStore store;
  std::map<ObjectId, VertexId> model;
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    store.put(ObjectId{i}, VertexId{i % kVertices},
              std::make_shared<KvObject>(i));
    model[ObjectId{i}] = VertexId{i % kVertices};
  }
  const auto check = [&] {
    ASSERT_EQ(store.size(), model.size());
    for (std::uint64_t v = 0; v < kVertices + 1; ++v) {
      auto ids = store.objects_of_vertex(VertexId{v});
      std::sort(ids.begin(), ids.end());
      std::vector<ObjectId> expected;
      for (const auto& [id, vertex] : model)
        if (vertex == VertexId{v}) expected.push_back(id);
      ASSERT_EQ(ids, expected) << "vertex " << v;
    }
    for (std::uint64_t i = 0; i < kObjects + 1; ++i) {
      auto it = model.find(ObjectId{i});
      EXPECT_EQ(store.vertex_of(ObjectId{i}),
                it == model.end() ? VertexId{UINT64_MAX} : it->second);
    }
  };
  for (std::uint64_t round = 0; round < 100'000; ++round) {
    const ObjectId id{(round * 7) % kObjects};
    ObjectPtr taken = store.take(id);
    ASSERT_NE(taken, nullptr);
    VertexId home = model.at(id);
    model.erase(id);
    if (round % 1000 == 999) {
      // Re-home the whole vertex: every object of it moves to v + 1 (the
      // spare vertex kVertices included).
      const VertexId to{(home.value() + 1) % (kVertices + 1)};
      for (ObjectId other : store.objects_of_vertex(home)) {
        store.put(other, to, store.take(other));
        model[other] = to;
      }
      home = to;
    }
    store.put(id, home, std::move(taken));
    model[id] = home;
    if (round % 10'000 == 0) check();
  }
  check();
  // Re-putting a live id under a new vertex re-homes it in place.
  store.put(ObjectId{0}, VertexId{kVertices}, std::make_shared<KvObject>(9));
  model[ObjectId{0}] = VertexId{kVertices};
  check();
}

/// 20 objects, four per vertex 0..4, with id 3 taken (a tombstone).
ObjectStore sample_store() {
  ObjectStore store;
  for (std::uint64_t i = 0; i < 20; ++i)
    store.put(ObjectId{i}, VertexId{i / 4}, std::make_shared<KvObject>(i));
  store.take(ObjectId{3});
  return store;
}

void expect_sample(const ObjectStore& store) {
  ASSERT_EQ(store.size(), 19u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (i == 3) {
      EXPECT_FALSE(store.contains(ObjectId{i}));
      continue;
    }
    const auto* kv = dynamic_cast<const KvObject*>(store.find(ObjectId{i}));
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->value, i);
    EXPECT_EQ(store.vertex_of(ObjectId{i}), VertexId{i / 4});
  }
  EXPECT_EQ(store.objects_of_vertex(VertexId{0}),
            (std::vector<ObjectId>{ObjectId{0}, ObjectId{1}, ObjectId{2}}));
  EXPECT_TRUE(store.objects_of_vertex(VertexId{9}).empty());
}

/// Mutates, takes and re-homes objects of `changed` and refills its
/// tombstone; `other` must still hold exactly the sample.
void expect_independent(ObjectStore& changed, const ObjectStore& other) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (i == 3) continue;
    EXPECT_NE(changed.find(ObjectId{i}), other.find(ObjectId{i}));
  }
  dynamic_cast<KvObject*>(changed.find(ObjectId{1}))->value = 1000;
  changed.take(ObjectId{0});
  changed.put(ObjectId{2}, VertexId{9}, changed.take(ObjectId{2}));
  changed.put(ObjectId{3}, VertexId{0}, std::make_shared<KvObject>(33));
  expect_sample(other);
}

TEST(ObjectStore, CopiesDoNotAliasEitherSide) {
  for (const bool mutate_copy : {false, true}) {
    SCOPED_TRACE(mutate_copy ? "mutate copy" : "mutate source");
    {
      ObjectStore source = sample_store();
      ObjectStore copy(source);
      if (mutate_copy)
        expect_independent(copy, source);
      else
        expect_independent(source, copy);
    }
    {
      ObjectStore source = sample_store();
      ObjectStore copy;
      copy.put(ObjectId{99}, VertexId{9}, std::make_shared<KvObject>(99));
      copy = source;  // replaces the previous contents entirely
      if (mutate_copy)
        expect_independent(copy, source);
      else
        expect_independent(source, copy);
    }
  }
}

TEST(ObjectStore, SelfAssignmentIsNoOp) {
  ObjectStore store = sample_store();
  const PRObject* before = store.find(ObjectId{1});
  const ObjectStore& alias = store;
  store = alias;
  expect_sample(store);
  EXPECT_EQ(store.find(ObjectId{1}), before);  // nothing was re-cloned
}

TEST(ObjectStore, MoveKeepsObjectsAndVertexIndex) {
  ObjectStore store = sample_store();
  const PRObject* before = store.find(ObjectId{1});
  ObjectStore moved(std::move(store));
  expect_sample(moved);
  ObjectStore assigned;
  assigned.put(ObjectId{99}, VertexId{9}, std::make_shared<KvObject>(99));
  assigned = std::move(moved);
  expect_sample(assigned);
  EXPECT_EQ(assigned.find(ObjectId{1}), before);  // moved, not cloned
}

TEST(ChooseTarget, MostObjectsWins) {
  std::vector<ObjectId> objects{ObjectId{1}, ObjectId{2}, ObjectId{3}};
  std::vector<PartitionId> owners{PartitionId{0}, PartitionId{1},
                                  PartitionId{1}};
  EXPECT_EQ(choose_target(objects, owners), PartitionId{1});
}

TEST(ChooseTarget, TieBreaksToLowestPartition) {
  std::vector<ObjectId> objects{ObjectId{1}, ObjectId{2}};
  std::vector<PartitionId> owners{PartitionId{3}, PartitionId{1}};
  EXPECT_EQ(choose_target(objects, owners), PartitionId{1});
}

TEST(ChooseTarget, SingleOwner) {
  std::vector<ObjectId> objects{ObjectId{1}};
  std::vector<PartitionId> owners{PartitionId{2}};
  EXPECT_EQ(choose_target(objects, owners), PartitionId{2});
}

TEST(GroupMapping, OracleIsGroupZero) {
  EXPECT_EQ(kOracleGroup, GroupId{0});
  EXPECT_EQ(group_of(PartitionId{0}), GroupId{1});
  EXPECT_EQ(partition_of(GroupId{3}), PartitionId{2});
}

TEST(Protocol, EnvelopeBytesCountPayloads) {
  std::vector<ObjectEnvelope> envelopes;
  envelopes.push_back({ObjectId{1}, VertexId{1},
                       std::make_shared<const KvObject>(1)});
  envelopes.push_back({ObjectId{2}, VertexId{2}, nullptr});  // absent object
  const auto bytes = envelopes_bytes(envelopes);
  EXPECT_GE(bytes, 24u * 2);
  VarTransfer transfer(1, 1, PartitionId{0}, envelopes);
  EXPECT_GE(transfer.size_bytes(), bytes);
}

TEST(Protocol, CommandSizeScalesWithOmega) {
  auto payload = sim::make_message<workloads::KvOp>(
      workloads::KvOp::Kind::kGet, 0);
  Command small(1, ProcessId{0}, CommandType::kAccess, {ObjectId{1}},
                {VertexId{1}}, payload);
  std::vector<ObjectId> many_objects(100, ObjectId{1});
  std::vector<VertexId> many_vertices(100, VertexId{1});
  Command large(2, ProcessId{0}, CommandType::kAccess, many_objects,
                many_vertices, payload);
  EXPECT_GT(large.size_bytes(), small.size_bytes());
}

TEST(Ids, StrongIdsHashAndCompare) {
  std::unordered_map<ObjectId, int> map;
  map[ObjectId{1}] = 1;
  map[ObjectId{2}] = 2;
  EXPECT_EQ(map.at(ObjectId{1}), 1);
  EXPECT_TRUE(ObjectId{1} < ObjectId{2});
  EXPECT_TRUE(ObjectId{2} != ObjectId{1});
  EXPECT_EQ(kNoPartition, PartitionId{UINT64_MAX});
}

}  // namespace
}  // namespace dynastar::core
