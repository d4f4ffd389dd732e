// Unit tests for core building blocks that don't need the full stack:
// ObjectStore, target choice, and protocol message invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/object.h"
#include "core/protocol.h"
#include "core/server.h"
#include "core/system.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace dynastar::core {
namespace {

using workloads::KvObject;

TEST(ObjectStore, PutFindTake) {
  ObjectStore store;
  store.put(ObjectId{1}, VertexId{10}, std::make_shared<KvObject>(5));
  ASSERT_TRUE(store.contains(ObjectId{1}));
  const auto* obj = dynamic_cast<const KvObject*>(store.find(ObjectId{1}));
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

TEST(ObjectStore, DrainVertexMatchesCopyAndTake) {
  // drain_vertex against the loop it replaces: copy the vertex's id list,
  // then take each id.
  ObjectStore drained;
  for (std::uint64_t i = 0; i < 12; ++i)
    drained.put(ObjectId{i}, VertexId{i % 3}, std::make_shared<KvObject>(i));
  drained.take(ObjectId{4});  // vertex 1 keeps a hole in its history
  ObjectStore taken = drained;

  std::vector<std::pair<ObjectId, ObjectPtr>> expected;
  for (ObjectId id : taken.objects_of_vertex(VertexId{1}))
    expected.emplace_back(id, taken.take(id));
  std::vector<std::pair<ObjectId, ObjectPtr>> got;
  drained.drain_vertex(VertexId{1}, [&](ObjectId id, ObjectPtr object) {
    got.emplace_back(id, std::move(object));
  });

  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got, expected);  // same ids, same order, same versions
  EXPECT_TRUE(drained.objects_of_vertex(VertexId{1}).empty());
  EXPECT_EQ(drained.size(), taken.size());
  for (std::uint64_t i = 0; i < 12; ++i)
    EXPECT_EQ(drained.find(ObjectId{i}), taken.find(ObjectId{i})) << i;
  // Draining an unknown or emptied vertex calls nothing.
  drained.drain_vertex(VertexId{1}, [](ObjectId, ObjectPtr) { FAIL(); });
  drained.drain_vertex(VertexId{9}, [](ObjectId, ObjectPtr) { FAIL(); });
}

TEST(ObjectStore, GetMutClonesASharedVersionOnce) {
  ObjectStore store;
  store.put(ObjectId{1}, VertexId{1}, std::make_shared<KvObject>(5));
  const ObjectPtr held = store.share(ObjectId{1});  // e.g. a checkpoint
  auto* first = dynamic_cast<KvObject*>(store.get_mut(ObjectId{1}));
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first, held.get());
  EXPECT_EQ(store.share(ObjectId{1}).use_count(), 2);  // store + this copy
  first->value = 6;
  // The store now holds the sole reference: no second clone.
  EXPECT_EQ(store.get_mut(ObjectId{1}), first);
  EXPECT_EQ(dynamic_cast<const KvObject*>(held.get())->value, 5u);
  EXPECT_EQ(held.use_count(), 1);
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

/// Writes (through get_mut), takes and re-homes objects of `changed` and
/// refills its tombstone; `other` must still hold exactly the sample. The
/// two stores start out sharing every version; a write clones the shared
/// version once, and leaves the other side's pointer and digest alone.
void expect_independent(ObjectStore& changed, const ObjectStore& other) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(changed.find(ObjectId{i}), other.find(ObjectId{i}));
  }
  const PRObject* shared = other.find(ObjectId{1});
  const std::uint64_t shared_digest = shared->digest();
  auto* written = dynamic_cast<KvObject*>(changed.get_mut(ObjectId{1}));
  ASSERT_NE(written, nullptr);
  EXPECT_NE(written, shared);  // cloned, not written in place
  written->value = 1000;
  EXPECT_EQ(other.find(ObjectId{1}), shared);
  EXPECT_EQ(shared->digest(), shared_digest);
  EXPECT_EQ(changed.find(ObjectId{1}), written);
  // The clone is now the changed side's own: no second clone.
  EXPECT_EQ(changed.get_mut(ObjectId{1}), written);
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

// ---------------------------------------------------------------------------
// Copy-on-write object versions
// ---------------------------------------------------------------------------

CommandPtr make_cmd(std::vector<std::pair<ObjectId, VertexId>> objs,
                    sim::MessagePtr payload) {
  std::vector<ObjectId> ids;
  std::vector<VertexId> vertices;
  for (const auto& [id, vertex] : objs) {
    ids.push_back(id);
    vertices.push_back(vertex);
  }
  return sim::make_message<Command>(1, ProcessId{0}, CommandType::kAccess,
                                    std::move(ids), std::move(vertices),
                                    std::move(payload));
}

/// Pointer of every object homed at the command's vertices.
std::vector<std::pair<ObjectId, const PRObject*>> versions_under(
    const ObjectStore& store, const Command& cmd) {
  std::vector<std::pair<ObjectId, const PRObject*>> versions;
  for (VertexId v : cmd.vertices)
    for (ObjectId id : store.objects_of_vertex(v))
      versions.emplace_back(id, store.find(id));
  return versions;
}

/// Executes `cmd` while a checkpoint copy shares every version of `store`,
/// and expects no object under the command's vertices to change pointer.
void expect_no_clone(AppStateMachine& app, const Command& cmd,
                     ObjectStore& store) {
  const ObjectStore checkpoint(store);
  const auto before = versions_under(store, cmd);
  ASSERT_FALSE(before.empty());
  const ExecResult result = app.execute(cmd, store);
  EXPECT_NE(result.reply, nullptr);
  EXPECT_EQ(versions_under(store, cmd), before);
  for (const auto& [id, version] : before)
    EXPECT_EQ(checkpoint.find(id), version) << "object " << id.value();
}

// A read-only command must leave every version shared: a checkpoint holds
// the same pointers as the live store, and a read that cloned would copy
// the object for nothing and break that sharing.
TEST(CopyOnWrite, ReadOnlyCommandsNeverClone) {
  namespace ch = workloads::chirper;
  namespace sb = workloads::smallbank;
  namespace tp = workloads::tpcc;
  {
    SCOPED_TRACE("kv get");
    workloads::KvApp app;
    ObjectStore store;
    for (std::uint64_t k = 0; k < 2; ++k)
      store.put(ObjectId{k}, VertexId{k}, std::make_shared<KvObject>(k));
    auto get = make_cmd({{ObjectId{0}, VertexId{0}}, {ObjectId{1}, VertexId{1}}},
                        sim::make_message<workloads::KvOp>(
                            workloads::KvOp::Kind::kGet, 0));
    expect_no_clone(app, *get, store);

    // Control: a put through the same path does clone the shared version.
    const ObjectStore checkpoint(store);
    auto put = make_cmd({{ObjectId{0}, VertexId{0}}},
                        sim::make_message<workloads::KvOp>(
                            workloads::KvOp::Kind::kPut, 7));
    app.execute(*put, store);
    EXPECT_NE(store.find(ObjectId{0}), checkpoint.find(ObjectId{0}));
  }
  {
    SCOPED_TRACE("smallbank balance");
    sb::SmallBankApp app;
    ObjectStore store;
    store.put(sb::customer_object(0), sb::customer_vertex(0),
              std::make_shared<sb::CustomerAccounts>(100.0, 10.0));
    auto op = sim::make_mutable_message<sb::Op>();
    op->kind = sb::Op::Kind::kBalance;
    auto cmd = make_cmd({{sb::customer_object(0), sb::customer_vertex(0)}}, op);
    expect_no_clone(app, *cmd, store);
  }
  {
    tp::Scale scale;
    tp::TpccApp app(scale);
    ObjectStore store;
    const VertexId district = tp::district_vertex(1, 1);
    store.put(tp::oid(tp::Table::kWarehouse, 1, 0, 0), tp::warehouse_vertex(1),
              std::make_shared<tp::WarehouseRow>());
    store.put(tp::oid(tp::Table::kDistrict, 1, 1, 0), district,
              std::make_shared<tp::DistrictRow>());
    store.put(tp::oid(tp::Table::kCustomer, 1, 1, 1), district,
              std::make_shared<tp::CustomerRow>());
    for (std::uint32_t i = 1; i <= 3; ++i)
      store.put(tp::oid(tp::Table::kStock, 1, 0, i), tp::warehouse_vertex(1),
                std::make_shared<tp::StockRow>());
    // One order, so the reads below have an order row and recent orders.
    auto new_order = sim::make_mutable_message<tp::NewOrderArgs>();
    new_order->w = 1;
    new_order->d = 1;
    new_order->c = 1;
    new_order->lines = {{1, 1, 5, 0}, {2, 1, 3, 0}};
    app.execute(*make_cmd({{tp::oid(tp::Table::kWarehouse, 1, 0, 0),
                            tp::warehouse_vertex(1)}},
                          new_order),
                store);
    ASSERT_TRUE(store.contains(tp::oid(tp::Table::kOrder, 1, 1, 1)));
    {
      SCOPED_TRACE("tpcc order status");
      auto args = sim::make_mutable_message<tp::OrderStatusArgs>();
      args->w = 1;
      args->d = 1;
      args->c = 1;
      args->o_id = 1;
      auto cmd = make_cmd({{tp::oid(tp::Table::kCustomer, 1, 1, 1), district},
                           {tp::oid(tp::Table::kOrder, 1, 1, 1), district}},
                          args);
      expect_no_clone(app, *cmd, store);
    }
    {
      SCOPED_TRACE("tpcc stock scan");
      auto args = sim::make_mutable_message<tp::StockScanArgs>();
      args->w = 1;
      args->d = 1;
      auto cmd =
          make_cmd({{tp::oid(tp::Table::kDistrict, 1, 1, 0), district}}, args);
      expect_no_clone(app, *cmd, store);
    }
    {
      SCOPED_TRACE("tpcc stock check");
      auto args = sim::make_mutable_message<tp::StockCheckArgs>();
      args->w = 1;
      auto cmd = make_cmd({{tp::oid(tp::Table::kStock, 1, 0, 1),
                            tp::warehouse_vertex(1)},
                           {tp::oid(tp::Table::kStock, 1, 0, 2),
                            tp::warehouse_vertex(1)}},
                          args);
      expect_no_clone(app, *cmd, store);
    }
  }
  {
    SCOPED_TRACE("chirper timeline");
    ch::ChirperApp app;
    ObjectStore store;
    auto user = std::make_shared<ch::UserObject>();
    user->append(42);
    store.put(ch::user_object(0), ch::user_vertex(0), std::move(user));
    auto op = sim::make_mutable_message<ch::ChirperOp>();
    op->kind = ch::ChirperOp::Kind::kTimeline;
    auto cmd = make_cmd({{ch::user_object(0), ch::user_vertex(0)}}, op);
    expect_no_clone(app, *cmd, store);
  }
}

/// Issues queued specs one at a time and idles while the queue is empty.
class ScriptedDriver final : public ClientDriver {
 public:
  std::optional<CommandSpec> next(Rng& /*rng*/, SimTime /*now*/) override {
    if (queue.empty()) return CommandSpec::pause_for(milliseconds(5));
    CommandSpec spec = std::move(queue.front());
    queue.pop_front();
    return spec;
  }
  void on_result(const CommandSpec& /*spec*/, ReplyStatus status,
                 const sim::MessagePtr& /*payload*/, SimTime /*issued_at*/,
                 SimTime /*completed_at*/) override {
    statuses.push_back(status);
  }

  std::deque<CommandSpec> queue;
  std::vector<ReplyStatus> statuses;
};

TEST(CopyOnWrite, ReplicasShareReturnedVersion) {
  namespace ch = workloads::chirper;
  SystemConfig config;
  config.mode = ExecutionMode::kDynaStar;
  config.num_partitions = 4;
  config.replicas_per_partition = 3;
  config.repartitioning_enabled = false;
  config.repartition_hint_threshold = UINT64_MAX;
  // Every target replica returns its own written version and an owner
  // replica installs whichever return reaches it first. Without jitter the
  // first target replica to execute is first at every owner replica, so
  // each owner's replicas install the same message's version.
  config.network.jitter = 0;
  System system(config, ch::chirper_app_factory());
  // Users 0, 4 and 8 live on partition 0 and user p on partition p, so a
  // post by user 0 to 4, 8, 1, 2 and 3 executes at partition 0 and borrows
  // one user from each of partitions 1..3.
  const std::vector<std::uint32_t> users{0, 1, 2, 3, 4, 8};
  Assignment assignment;
  for (std::uint32_t u : users) {
    const PartitionId p{u % 4};
    assignment[ch::user_vertex(u)] = p;
    system.preload_object(ch::user_object(u), ch::user_vertex(u), p,
                          ch::UserObject{});
  }
  system.preload_assignment(assignment);
  auto owned = std::make_unique<ScriptedDriver>();
  ScriptedDriver& driver = *owned;
  system.add_client(std::move(owned));

  CommandSpec post;
  for (std::uint32_t u : {0u, 4u, 8u, 1u, 2u, 3u})
    post.objects.emplace_back(ch::user_object(u), ch::user_vertex(u));
  auto post_op = sim::make_mutable_message<ch::ChirperOp>();
  post_op->kind = ch::ChirperOp::Kind::kPost;
  post_op->author = 0;
  post_op->post_ref = 0xfeed;
  post.payload = std::move(post_op);
  driver.queue.push_back(std::move(post));
  system.run_until(seconds(1));
  ASSERT_EQ(driver.statuses, std::vector<ReplyStatus>{ReplyStatus::kOk});

  // Every replica of each owner installed the one returned version.
  std::vector<ObjectPtr> returned;
  for (std::uint32_t p = 1; p < 4; ++p) {
    SCOPED_TRACE(testing::Message() << "owner " << p);
    const ObjectId id = ch::user_object(p);
    returned.push_back(system.server(PartitionId{p}, 0).store().share(id));
    const auto* user = dynamic_cast<const ch::UserObject*>(returned.back().get());
    ASSERT_NE(user, nullptr);
    EXPECT_EQ(std::vector<std::uint64_t>(user->timeline.begin(),
                                         user->timeline.end()),
              std::vector<std::uint64_t>{0xfeed});
    for (std::size_t r = 1; r < config.replicas_per_partition; ++r) {
      const ObjectStore& store = system.server(PartitionId{p}, r).store();
      EXPECT_EQ(store.find(id), user);
    }
  }

  // A write at owner 1 clones the shared version at each replica: the
  // replicas agree with each other, and the returned version is untouched.
  const std::uint64_t returned_digest = returned[0]->digest();
  CommandSpec follow;
  follow.objects.emplace_back(ch::user_object(1), ch::user_vertex(1));
  auto follow_op = sim::make_mutable_message<ch::ChirperOp>();
  follow_op->kind = ch::ChirperOp::Kind::kFollow;
  follow.payload = std::move(follow_op);
  driver.queue.push_back(std::move(follow));
  system.run_until(seconds(2));
  ASSERT_EQ(driver.statuses.size(), 2u);
  EXPECT_EQ(driver.statuses[1], ReplyStatus::kOk);
  EXPECT_EQ(returned[0]->digest(), returned_digest);
  const PRObject* first = system.server(PartitionId{1}, 0).store().find(
      ch::user_object(1));
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first->digest(), returned_digest);
  for (std::size_t r = 0; r < config.replicas_per_partition; ++r) {
    const PRObject* version =
        system.server(PartitionId{1}, r).store().find(ch::user_object(1));
    ASSERT_NE(version, nullptr);
    EXPECT_NE(version, returned[0].get());
    EXPECT_EQ(version->digest(), first->digest());
  }
}

/// The target route_command picks for objects owned by `owners`.
PartitionId target_of(const std::vector<PartitionId>& owners) {
  return route_command(ExecutionMode::kDynaStar, owners).target;
}

TEST(ChooseTarget, MostObjectsWins) {
  EXPECT_EQ(target_of({PartitionId{0}, PartitionId{1}, PartitionId{1}}),
            PartitionId{1});
}

TEST(ChooseTarget, TieBreaksToLowestPartition) {
  EXPECT_EQ(target_of({PartitionId{3}, PartitionId{1}}), PartitionId{1});
  EXPECT_EQ(target_of({PartitionId{4}, PartitionId{2}, PartitionId{2},
                       PartitionId{4}, PartitionId{0}}),
            PartitionId{2});
}

TEST(ChooseTarget, SingleOwner) {
  EXPECT_EQ(target_of({PartitionId{2}}), PartitionId{2});
  EXPECT_EQ(target_of({PartitionId{5}, PartitionId{5}, PartitionId{5}}),
            PartitionId{5});
}

TEST(ChooseTarget, ManyOwnersCountEachDistinctOwner) {
  // 20 owners, objects listed from the highest owner down. One object each
  // is a 20-way tie; a second object for owner 17 makes it the winner, and
  // then a second object for owner 3 ties it again.
  std::vector<PartitionId> owners;
  for (std::uint64_t p = 20; p-- > 0;) owners.push_back(PartitionId{p});
  EXPECT_EQ(target_of(owners), PartitionId{0});
  owners.push_back(PartitionId{17});
  EXPECT_EQ(target_of(owners), PartitionId{17});
  owners.push_back(PartitionId{3});
  EXPECT_EQ(target_of(owners), PartitionId{3});
  // choose_target itself, over the sorted distinct owners.
  std::vector<PartitionId> dests;
  for (std::uint64_t p = 0; p < 20; ++p) dests.push_back(PartitionId{p});
  owners.push_back(PartitionId{19});
  owners.push_back(PartitionId{19});
  EXPECT_EQ(choose_target(dests, owners), PartitionId{19});
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
