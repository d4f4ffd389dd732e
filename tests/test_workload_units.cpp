// Unit tests for the workload applications' deterministic logic, executed
// directly against an ObjectStore (no distributed stack involved).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/object.h"
#include "workloads/chirper.h"
#include "workloads/kv_drivers.h"
#include "workloads/smallbank.h"
#include "workloads/social_graph.h"
#include "workloads/tpcc.h"

namespace dynastar::workloads {
namespace {

namespace tp = tpcc;
namespace ch = chirper;

core::CommandPtr make_cmd(std::vector<std::pair<ObjectId, core::VertexId>> objs,
                          sim::MessagePtr payload) {
  std::vector<ObjectId> ids;
  std::vector<core::VertexId> vertices;
  for (auto& [o, v] : objs) {
    ids.push_back(o);
    vertices.push_back(v);
  }
  return sim::make_message<core::Command>(
      1, ProcessId{0}, core::CommandType::kAccess, std::move(ids),
      std::move(vertices), std::move(payload));
}

class TpccAppTest : public ::testing::Test {
 protected:
  TpccAppTest() : app_(scale_) {
    store_.put(tp::oid(tp::Table::kWarehouse, 1, 0, 0), tp::warehouse_vertex(1),
               std::make_shared<tp::WarehouseRow>());
    store_.put(tp::oid(tp::Table::kDistrict, 1, 1, 0), tp::district_vertex(1, 1),
               std::make_shared<tp::DistrictRow>());
    store_.put(tp::oid(tp::Table::kHistory, 1, 1, 0), tp::district_vertex(1, 1),
               std::make_shared<tp::HistoryRow>());
    for (std::uint32_t c = 1; c <= 3; ++c) {
      store_.put(tp::oid(tp::Table::kCustomer, 1, 1, c),
                 tp::district_vertex(1, 1), std::make_shared<tp::CustomerRow>());
    }
    for (std::uint32_t i = 1; i <= 10; ++i) {
      store_.put(tp::oid(tp::Table::kStock, 1, 0, i), tp::warehouse_vertex(1),
                 std::make_shared<tp::StockRow>());
    }
  }

  const tp::TpccReply* run_new_order(std::uint32_t c,
                                     std::vector<tp::OrderLine> lines) {
    auto args = sim::make_mutable_message<tp::NewOrderArgs>();
    args->w = 1;
    args->d = 1;
    args->c = c;
    args->lines = std::move(lines);
    auto cmd = make_cmd({{tp::oid(tp::Table::kWarehouse, 1, 0, 0),
                          tp::warehouse_vertex(1)}},
                        args);
    replies_.push_back(app_.execute(*cmd, store_).reply);
    return dynamic_cast<const tp::TpccReply*>(replies_.back().get());
  }

  tp::Scale scale_;
  tp::TpccApp app_;
  core::ObjectStore store_;
  // Every reply stays alive for the test: callers hold the returned
  // pointers across later calls.
  std::vector<sim::MessagePtr> replies_;
};

TEST_F(TpccAppTest, NewOrderAssignsIncreasingOrderIds) {
  auto* r1 = run_new_order(1, {{3, 1, 5, 0}});
  auto* r2 = run_new_order(2, {{4, 1, 2, 0}});
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->o_id, 1u);
  EXPECT_EQ(r2->o_id, 2u);
  // Order rows exist under the district vertex.
  EXPECT_TRUE(store_.contains(tp::oid(tp::Table::kOrder, 1, 1, 1)));
  EXPECT_TRUE(store_.contains(tp::oid(tp::Table::kOrder, 1, 1, 2)));
  EXPECT_EQ(store_.vertex_of(tp::oid(tp::Table::kOrder, 1, 1, 1)),
            tp::district_vertex(1, 1));
}

TEST_F(TpccAppTest, NewOrderUpdatesStock) {
  run_new_order(1, {{5, 1, 7, 0}});
  auto* stock = dynamic_cast<const tp::StockRow*>(
      store_.find(tp::oid(tp::Table::kStock, 1, 0, 5)));
  ASSERT_NE(stock, nullptr);
  EXPECT_EQ(stock->quantity, 43u);  // 50 - 7
  EXPECT_EQ(stock->ytd, 7u);
  EXPECT_EQ(stock->order_cnt, 1u);
  EXPECT_EQ(stock->remote_cnt, 0u);
}

TEST_F(TpccAppTest, StockRefillsBelowThreshold) {
  for (int i = 0; i < 5; ++i) run_new_order(1, {{5, 1, 9, 0}});
  auto* stock = dynamic_cast<const tp::StockRow*>(
      store_.find(tp::oid(tp::Table::kStock, 1, 0, 5)));
  // Quantity must never go negative; the spec's +91 refill kicks in.
  EXPECT_GT(stock->quantity, 0u);
  EXPECT_EQ(stock->ytd, 45u);
}

TEST_F(TpccAppTest, PaymentMovesMoney) {
  auto args = sim::make_mutable_message<tp::PaymentArgs>();
  args->w = 1;
  args->d = 1;
  args->c_w = 1;
  args->c_d = 1;
  args->c = 2;
  args->amount = 100.0;
  auto cmd = make_cmd({{tp::oid(tp::Table::kCustomer, 1, 1, 2),
                        tp::district_vertex(1, 1)}},
                      args);
  auto result = app_.execute(*cmd, store_);
  auto* reply = dynamic_cast<const tp::TpccReply*>(result.reply.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_NEAR(reply->balance, -110.0, 1e-9);  // initial -10 minus 100
  auto* warehouse = dynamic_cast<const tp::WarehouseRow*>(
      store_.find(tp::oid(tp::Table::kWarehouse, 1, 0, 0)));
  EXPECT_NEAR(warehouse->ytd, 100.0, 1e-9);
  auto* history = dynamic_cast<const tp::HistoryRow*>(
      store_.find(tp::oid(tp::Table::kHistory, 1, 1, 0)));
  EXPECT_EQ(history->entries, 1u);
}

TEST_F(TpccAppTest, DeliveryProcessesOldestUndelivered) {
  run_new_order(1, {{3, 1, 5, 0}});
  run_new_order(2, {{4, 1, 2, 0}});
  auto args = sim::make_mutable_message<tp::DeliveryArgs>();
  args->w = 1;
  args->d = 1;
  args->carrier = 7;
  auto cmd = make_cmd({{tp::oid(tp::Table::kDistrict, 1, 1, 0),
                        tp::district_vertex(1, 1)}},
                      args);
  auto result = app_.execute(*cmd, store_);
  auto* reply = dynamic_cast<const tp::TpccReply*>(result.reply.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->o_id, 1u);  // oldest first
  auto* order = dynamic_cast<const tp::OrderRow*>(
      store_.find(tp::oid(tp::Table::kOrder, 1, 1, 1)));
  EXPECT_EQ(order->carrier, 7u);
  // Customer 1's balance got credited.
  auto* customer = dynamic_cast<const tp::CustomerRow*>(
      store_.find(tp::oid(tp::Table::kCustomer, 1, 1, 1)));
  EXPECT_GT(customer->balance, -10.0);
  EXPECT_EQ(customer->delivery_cnt, 1u);

  // Second delivery processes order 2.
  auto result2 = app_.execute(*cmd, store_);
  auto* reply2 = dynamic_cast<const tp::TpccReply*>(result2.reply.get());
  EXPECT_EQ(reply2->o_id, 2u);
}

TEST_F(TpccAppTest, StockScanReportsRecentItems) {
  run_new_order(1, {{3, 1, 5, 0}, {7, 1, 1, 0}});
  auto args = sim::make_mutable_message<tp::StockScanArgs>();
  args->w = 1;
  args->d = 1;
  auto cmd = make_cmd({{tp::oid(tp::Table::kDistrict, 1, 1, 0),
                        tp::district_vertex(1, 1)}},
                      args);
  auto result = app_.execute(*cmd, store_);
  auto* reply = dynamic_cast<const tp::TpccReply*>(result.reply.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->items, (std::vector<std::uint32_t>{3, 7}));
}

TEST_F(TpccAppTest, MissingRowsRejectGracefully) {
  auto args = sim::make_mutable_message<tp::PaymentArgs>();
  args->w = 9;  // nonexistent warehouse
  args->d = 1;
  args->c_w = 9;
  args->c_d = 1;
  args->c = 1;
  auto cmd = make_cmd({{tp::oid(tp::Table::kCustomer, 9, 1, 1),
                        tp::district_vertex(9, 1)}},
                      args);
  auto result = app_.execute(*cmd, store_);
  auto* reply = dynamic_cast<const tp::TpccReply*>(result.reply.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->ok);
}

// --- Chirper ---

TEST(ChirperApp, PostAppendsToFollowerTimelinesOnly) {
  ch::ChirperApp app;
  core::ObjectStore store;
  for (std::uint32_t u = 0; u < 3; ++u)
    store.put(ch::user_object(u), ch::user_vertex(u),
              std::make_shared<ch::UserObject>());
  auto op = sim::make_mutable_message<ch::ChirperOp>();
  op->kind = ch::ChirperOp::Kind::kPost;
  op->author = 0;
  op->post_ref = 0xfeed;
  auto cmd = make_cmd({{ch::user_object(0), ch::user_vertex(0)},
                       {ch::user_object(1), ch::user_vertex(1)},
                       {ch::user_object(2), ch::user_vertex(2)}},
                      op);
  app.execute(*cmd, store);

  auto* author =
      dynamic_cast<const ch::UserObject*>(store.find(ch::user_object(0)));
  EXPECT_EQ(author->posts, 1u);
  EXPECT_TRUE(author->timeline.empty());
  for (std::uint32_t u = 1; u < 3; ++u) {
    auto* follower =
        dynamic_cast<const ch::UserObject*>(store.find(ch::user_object(u)));
    ASSERT_EQ(follower->timeline.size(), 1u);
    EXPECT_EQ(follower->timeline[0], 0xfeedu);
  }
}

TEST(ChirperApp, TimelineIsCapped) {
  ch::UserObject user;
  for (std::uint64_t i = 0; i < 50; ++i) user.append(i);
  EXPECT_EQ(user.timeline.size(), ch::UserObject::kTimelineCap);
  EXPECT_EQ(user.timeline.back(), 49u);
  EXPECT_EQ(user.timeline.front(), 50 - ch::UserObject::kTimelineCap);
}

TEST(ChirperApp, TimelineMatchesVectorModel) {
  // The inline timeline against the vector it replaced: push_back, then
  // drop the oldest past the cap.
  ch::UserObject user;
  std::vector<std::uint64_t> model;
  const auto model_digest = [&] {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t ref : model) h = core::digest_mix(h, ref);
    h = core::digest_mix(h, user.posts);
    h = core::digest_mix(h, user.followers_count);
    return core::digest_mix(h, user.following_count);
  };
  for (std::uint64_t i = 0; i < 60; ++i) {
    user.append(i);
    model.push_back(i);
    if (model.size() > ch::UserObject::kTimelineCap) model.erase(model.begin());
    ASSERT_EQ(user.timeline.size(), model.size()) << "after " << i;
    EXPECT_EQ(user.timeline.back(), model.back());
    EXPECT_EQ(std::vector<std::uint64_t>(user.timeline.begin(),
                                         user.timeline.end()),
              model);
    EXPECT_EQ(user.size_bytes(), 48 + model.size() * 8);
    EXPECT_EQ(user.digest(), model_digest());
  }
}

TEST(ChirperApp, CloneIsIndependent) {
  ch::UserObject user;
  for (std::uint64_t i = 0; i < 30; ++i) user.append(i);
  const std::uint64_t digest = user.digest();
  core::ObjectPtr copy = user.clone();
  auto* clone = const_cast<ch::UserObject*>(
      dynamic_cast<const ch::UserObject*>(copy.get()));
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->digest(), digest);
  clone->append(99);
  ++clone->posts;
  EXPECT_NE(clone->digest(), digest);
  EXPECT_EQ(user.digest(), digest);
  EXPECT_EQ(user.timeline.back(), 29u);
}

TEST(ChirperApp, FollowAdjustsCounters) {
  ch::ChirperApp app;
  core::ObjectStore store;
  store.put(ch::user_object(1), ch::user_vertex(1),
            std::make_shared<ch::UserObject>());
  store.put(ch::user_object(2), ch::user_vertex(2),
            std::make_shared<ch::UserObject>());
  auto op = sim::make_mutable_message<ch::ChirperOp>();
  op->kind = ch::ChirperOp::Kind::kFollow;
  auto cmd = make_cmd({{ch::user_object(1), ch::user_vertex(1)},
                       {ch::user_object(2), ch::user_vertex(2)}},
                      op);
  app.execute(*cmd, store);
  auto* follower =
      dynamic_cast<const ch::UserObject*>(store.find(ch::user_object(1)));
  auto* followee =
      dynamic_cast<const ch::UserObject*>(store.find(ch::user_object(2)));
  EXPECT_EQ(follower->following_count, 1u);
  EXPECT_EQ(followee->followers_count, 1u);

  auto unop = sim::make_mutable_message<ch::ChirperOp>();
  unop->kind = ch::ChirperOp::Kind::kUnfollow;
  auto uncmd = make_cmd({{ch::user_object(1), ch::user_vertex(1)},
                         {ch::user_object(2), ch::user_vertex(2)}},
                        unop);
  app.execute(*uncmd, store);
  EXPECT_EQ(follower->following_count, 0u);
  EXPECT_EQ(followee->followers_count, 0u);
}

// --- Social graph generator ---

TEST(SocialGraph, SizesAndSymmetry) {
  auto graph = generate_social_graph(1000, 4, 7);
  EXPECT_EQ(graph.num_users(), 1000u);
  // ~4 follows per user (first few users have fewer options).
  EXPECT_GT(graph.num_edges(), 3500u);
  EXPECT_LT(graph.num_edges(), 4100u);
  // followers/following are mirror images.
  std::size_t follower_sum = 0, following_sum = 0;
  for (const auto& f : graph.followers) follower_sum += f.size();
  for (const auto& f : graph.following) following_sum += f.size();
  EXPECT_EQ(follower_sum, following_sum);
}

TEST(SocialGraph, HeavyTailedFollowers) {
  auto graph = generate_social_graph(5000, 4, 7);
  const auto max_followers = graph.max_followers();
  const double avg = static_cast<double>(graph.num_edges()) /
                     static_cast<double>(graph.num_users());
  EXPECT_GT(max_followers, avg * 20) << "no celebrities in the graph";
}

TEST(SocialGraph, DeterministicGivenSeed) {
  auto a = generate_social_graph(500, 3, 11);
  auto b = generate_social_graph(500, 3, 11);
  EXPECT_EQ(a.followers, b.followers);
}

TEST(SocialGraph, NoSelfFollowsOrDuplicates) {
  auto graph = generate_social_graph(800, 5, 3);
  for (std::uint32_t u = 0; u < 800; ++u) {
    auto following = graph.following[u];
    std::sort(following.begin(), following.end());
    EXPECT_EQ(std::unique(following.begin(), following.end()), following.end());
    EXPECT_EQ(std::find(following.begin(), following.end(), u),
              following.end());
  }
}

// --- Read-only declaration audit ---
//
// The read_only hints drivers attach to CommandSpecs are load-bearing: the
// parallel executor schedules "reads" concurrently and read leases serve
// them from unreplicated local copies, both via core::is_read_only. This
// audit runs each driver's spec stream straight against its application and
// checks the declarations against the *actual* write set, via PRObject
// digests of every declared vertex:
//   (a) a declared read must leave every digest unchanged, and
//   (b) the stream's writes must move digests somewhere —
// so a workload whose digest() is unimplemented (constant 0) fails (b)
// loudly instead of passing (a) vacuously.

std::uint64_t vertex_digest(const core::ObjectStore& store, core::VertexId v) {
  auto ids = store.objects_of_vertex(v);
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = core::digest_mix(0xcbf29ce484222325ull, ids.size());
  for (ObjectId id : ids) {
    h = core::digest_mix(h, id.value());
    const auto* obj = store.find(id);
    h = core::digest_mix(h, obj ? obj->digest() : 0);
  }
  return h;
}

struct AuditCounts {
  int reads = 0;
  int writes = 0;
  int writes_that_changed_state = 0;
};

AuditCounts audit_driver(core::ClientDriver& driver,
                         core::AppStateMachine& app, core::ObjectStore& store,
                         std::uint64_t seed, int ops) {
  Rng rng(seed);
  AuditCounts counts;
  for (int i = 0; i < ops; ++i) {
    auto spec = driver.next(rng, 0);
    if (!spec.has_value()) break;
    if (spec->objects.empty()) continue;  // pause spec: the client idles
    if (spec->type != core::CommandType::kAccess) continue;

    std::vector<ObjectId> ids;
    std::vector<core::VertexId> vertices;
    for (const auto& [o, v] : spec->objects) {
      ids.push_back(o);
      vertices.push_back(v);
    }
    std::vector<core::VertexId> distinct = vertices;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    std::vector<std::uint64_t> before;
    before.reserve(distinct.size());
    for (core::VertexId v : distinct) before.push_back(vertex_digest(store, v));

    auto cmd = sim::make_message<core::Command>(
        static_cast<std::uint64_t>(i + 1), ProcessId{0}, spec->type, ids,
        vertices, spec->payload, spec->read_only);
    auto result = app.execute(*cmd, store);

    bool changed = false;
    for (std::size_t j = 0; j < distinct.size(); ++j) {
      const std::uint64_t after = vertex_digest(store, distinct[j]);
      if (core::is_read_only(*cmd)) {
        EXPECT_EQ(before[j], after)
            << "declared read-only command #" << i << " (type "
            << static_cast<int>(spec->type) << ") mutated vertex "
            << distinct[j];
      } else if (after != before[j]) {
        changed = true;
      }
    }
    if (core::is_read_only(*cmd)) {
      ++counts.reads;
    } else {
      ++counts.writes;
      if (changed) ++counts.writes_that_changed_state;
    }
    // Stateful drivers (chirper's follower directory, TPC-C's pending
    // deliveries and last-order table) advance through the result callback.
    driver.on_result(*spec, core::ReplyStatus::kOk, result.reply, 0, 0);
  }
  return counts;
}

TEST(ReadOnlyAudit, KvDriverDeclarationsMatchWriteSet) {
  KvApp app;
  core::ObjectStore store;
  constexpr std::uint64_t kKeys = 16;
  for (std::uint64_t k = 0; k < kKeys; ++k)
    store.put(ObjectId{k}, core::VertexId{k},
              std::make_shared<KvObject>(1000 + k));
  RandomKvDriver driver(kKeys, 0.5, 0.4);
  const auto counts = audit_driver(driver, app, store, 17, 200);
  EXPECT_GT(counts.reads, 20);
  EXPECT_GT(counts.writes, 20);
  EXPECT_GT(counts.writes_that_changed_state, 0)
      << "no write moved a digest: KvObject::digest() is not observing state";
}

TEST(ReadOnlyAudit, SmallBankDriverDeclarationsMatchWriteSet) {
  smallbank::SmallBankApp app;
  core::ObjectStore store;
  constexpr std::uint32_t kCustomers = 200;
  for (std::uint32_t c = 0; c < kCustomers; ++c)
    store.put(smallbank::customer_object(c), smallbank::customer_vertex(c),
              std::make_shared<smallbank::CustomerAccounts>(100.0, 1000.0));
  smallbank::SmallBankDriver driver(kCustomers);
  const auto counts = audit_driver(driver, app, store, 23, 200);
  EXPECT_GT(counts.reads, 5);   // kBalance is 15% of the default mix
  EXPECT_GT(counts.writes, 50);
  EXPECT_GT(counts.writes_that_changed_state, 0)
      << "no write moved a digest: CustomerAccounts::digest() is broken";
}

TEST(ReadOnlyAudit, ChirperDriverDeclarationsMatchWriteSet) {
  ch::ChirperApp app;
  core::ObjectStore store;
  constexpr std::uint32_t kUsers = 50;
  auto graph = generate_social_graph(kUsers, 4, 5);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    auto user = std::make_shared<ch::UserObject>();
    user->followers_count = static_cast<std::uint32_t>(graph.followers[u].size());
    user->following_count = static_cast<std::uint32_t>(graph.following[u].size());
    store.put(ch::user_object(u), ch::user_vertex(u), std::move(user));
  }
  ch::WorkloadMix mix;
  mix.timeline_fraction = 0.5;  // plenty of both reads and posts
  mix.follow_fraction = 0.1;
  auto zipf = std::make_shared<const ZipfGenerator>(kUsers, mix.zipf_theta);
  ch::ChirperDriver driver(ch::make_directory(graph), mix, zipf);
  const auto counts = audit_driver(driver, app, store, 31, 200);
  EXPECT_GT(counts.reads, 20);
  EXPECT_GT(counts.writes, 20);
  EXPECT_GT(counts.writes_that_changed_state, 0)
      << "no write moved a digest: UserObject::digest() is broken";
}

TEST(ReadOnlyAudit, TpccDriverDeclarationsMatchWriteSet) {
  tp::Scale scale;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 5;
  scale.items = 20;
  constexpr std::uint32_t kWarehouses = 2;
  tp::TpccApp app(scale);
  core::ObjectStore store;
  for (std::uint32_t w = 1; w <= kWarehouses; ++w) {
    store.put(tp::oid(tp::Table::kWarehouse, w, 0, 0), tp::warehouse_vertex(w),
              std::make_shared<tp::WarehouseRow>());
    for (std::uint32_t i = 1; i <= scale.items; ++i)
      store.put(tp::oid(tp::Table::kStock, w, 0, i), tp::warehouse_vertex(w),
                std::make_shared<tp::StockRow>());
    for (std::uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      store.put(tp::oid(tp::Table::kDistrict, w, d, 0),
                tp::district_vertex(w, d), std::make_shared<tp::DistrictRow>());
      store.put(tp::oid(tp::Table::kHistory, w, d, 0),
                tp::district_vertex(w, d), std::make_shared<tp::HistoryRow>());
      for (std::uint32_t c = 1; c <= scale.customers_per_district; ++c)
        store.put(tp::oid(tp::Table::kCustomer, w, d, c),
                  tp::district_vertex(w, d),
                  std::make_shared<tp::CustomerRow>());
    }
  }
  tp::TpccDriver driver(scale, kWarehouses, 1, 1);
  const auto counts = audit_driver(driver, app, store, 41, 300);
  EXPECT_GT(counts.reads, 10);  // Order-Status + Stock-Level
  EXPECT_GT(counts.writes, 50);
  EXPECT_GT(counts.writes_that_changed_state, 0)
      << "no write moved a digest: the tpcc row digests are broken";
}

}  // namespace
}  // namespace dynastar::workloads
