// Repartitioning machinery: plan application, eager vs on-demand object
// relocation, epoch-held commands, oracle placement and rejection logic.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/system.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

using core::CommandSpec;
using core::CommandType;
using core::VertexId;
using workloads::KvOp;
using workloads::ScriptedKvDriver;

CommandSpec op(std::initializer_list<std::uint64_t> keys, KvOp::Kind kind,
               std::uint64_t value) {
  CommandSpec spec;
  for (auto k : keys) spec.objects.emplace_back(ObjectId{k}, VertexId{k});
  spec.payload = sim::make_message<KvOp>(kind, value);
  return spec;
}

core::SystemConfig base_config(bool eager) {
  core::SystemConfig config;
  config.num_partitions = 2;
  config.repartition_hint_threshold = UINT64_MAX;
  config.eager_plan_transfer = eager;
  return config;
}

void preload(core::System& system, std::uint64_t keys) {
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const PartitionId p{k % 2};
    assignment[VertexId{k}] = p;
    system.preload_object(ObjectId{k}, VertexId{k}, p,
                          workloads::KvObject(100 + k));
  }
  system.preload_assignment(assignment);
}

class PlanTransferMode : public ::testing::TestWithParam<bool> {};

TEST_P(PlanTransferMode, DataSurvivesRepartitionAndStaysReadable) {
  const bool eager = GetParam();
  core::System system(base_config(eager), workloads::kv_app_factory());
  preload(system, 8);

  // Drive skewed load so METIS has something to chew on, then force plans.
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(8, 0.6, 0.5));
  }
  system.run_until(seconds(2));
  system.request_repartition();
  system.run_until(seconds(4));
  EXPECT_GE(system.metrics().series("oracle.plans_applied").total(), 1.0);

  // Fresh client reads every key; all values must still be reachable.
  std::vector<ScriptedKvDriver::Record> records;
  std::vector<CommandSpec> script;
  for (std::uint64_t k = 0; k < 8; ++k)
    script.push_back(op({k}, KvOp::Kind::kGet, 0));
  system.add_client(std::make_unique<ScriptedKvDriver>(script, &records));
  system.run_until(seconds(8));

  ASSERT_EQ(records.size(), 8u) << (eager ? "eager" : "on-demand");
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(records[k].status, core::ReplyStatus::kOk);
    ASSERT_EQ(records[k].observed.size(), 1u);
    ASSERT_TRUE(records[k].observed[0].has_value())
        << "key " << k << " lost across repartition";
  }
  // Servers' epochs advanced consistently.
  EXPECT_EQ(system.server(PartitionId{0}).epoch(),
            system.server(PartitionId{1}).epoch());
  EXPECT_GE(system.server(PartitionId{0}).epoch(), 1u);
}

INSTANTIATE_TEST_SUITE_P(EagerAndOnDemand, PlanTransferMode,
                         ::testing::Values(true, false));

TEST(Repartitioning, OnDemandShipsFewerVerticesAtPlanTime) {
  double handoffs[2];
  int idx = 0;
  for (bool eager : {true, false}) {
    core::System system(base_config(eager), workloads::kv_app_factory());
    preload(system, 64);
    // Touch only keys 0..7 (heavily co-accessed); keys 8..63 stay cold.
    // The plan colocates the hot clique, so cold vertices must move for
    // balance — eager ships them immediately, on-demand never does (they
    // are never accessed again).
    for (int c = 0; c < 4; ++c) {
      system.add_client(
          std::make_unique<workloads::RandomKvDriver>(8, 0.6, 0.5));
    }
    system.run_until(seconds(2));
    system.request_repartition();
    system.run_until(seconds(6));
    handoffs[idx++] = system.metrics().series("plan_handoffs").total();
  }
  EXPECT_GT(handoffs[0], 0.0);          // eager actually relocated state
  EXPECT_LT(handoffs[1], handoffs[0]);  // on-demand deferred the cold tail
}

TEST(Repartitioning, PlanRequestSkipsCrashedOracleReplica) {
  // A crashed replica has no core to ask; the request reaches the replicas
  // that are up, and the surviving group still computes and applies a plan.
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 8);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(8, 0.6, 0.5));
  }
  system.run_until(seconds(1));
  system.world().crash(system.topology().group(core::kOracleGroup).replicas[1]);
  system.run_until(seconds(2));
  system.request_repartition();
  system.run_until(seconds(4));
  EXPECT_GE(system.metrics().series("oracle.plans_applied").total(), 1.0);
  EXPECT_GE(system.metrics().series("plan_applied").total(), 1.0);
}

TEST(Repartitioning, OracleReplicaInstallingAPeerSnapshotStillSendsItsPlan) {
  // Replica 0 sends plan 1 while replica 1 is down, so replica 1's sender
  // has sent nothing when it installs replica 0's state. The install must
  // leave replica 1's sender as it was: taking replica 0's counts would
  // stamp its next plan with seq 2 on its own channel, whose seq 1 never
  // comes, and every group would hold that plan forever.
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 8);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(8, 0.6, 0.5));
  }
  const auto& oracles = system.topology().group(core::kOracleGroup).replicas;
  system.run_until(milliseconds(500));
  system.world().crash(oracles[1]);
  system.request_repartition();
  system.run_until(seconds(2));
  ASSERT_EQ(system.server(PartitionId{0}).epoch(), 1u);
  system.world().recover(oracles[1]);
  system.run_until(milliseconds(2500));
  const auto peer = system.oracle(0).capture_snapshot();
  system.world().crash(oracles[0]);
  system.oracle(1).restore_snapshot(*peer);
  system.request_repartition();
  system.run_until(seconds(5));
  EXPECT_EQ(system.oracle(1).epoch(), 2u);
  EXPECT_EQ(system.server(PartitionId{0}).epoch(), 2u);
  EXPECT_EQ(system.server(PartitionId{1}).epoch(), 2u);
}

TEST(Repartitioning, OracleRejectsUnknownVertices) {
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 4);
  std::vector<ScriptedKvDriver::Record> records;
  system.add_client(std::make_unique<ScriptedKvDriver>(
      std::vector<CommandSpec>{op({999}, KvOp::Kind::kGet, 0)}, &records));
  system.run_until(seconds(2));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, core::ReplyStatus::kNok);
}

TEST(Repartitioning, CreatePlacementRoundRobins) {
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 2);
  std::vector<ScriptedKvDriver::Record> records;
  std::vector<CommandSpec> script;
  for (std::uint64_t k = 100; k < 108; ++k) {
    CommandSpec create;
    create.type = CommandType::kCreate;
    create.objects.emplace_back(ObjectId{k}, VertexId{k});
    create.payload = sim::make_message<KvOp>(KvOp::Kind::kPut, k);
    script.push_back(create);
  }
  system.add_client(std::make_unique<ScriptedKvDriver>(script, &records));
  system.run_until(seconds(3));
  ASSERT_EQ(records.size(), 8u);
  for (const auto& record : records)
    EXPECT_EQ(record.status, core::ReplyStatus::kOk);
  // Round-robin placement: both partitions received objects.
  std::size_t p0 = system.server(PartitionId{0}).store().size();
  std::size_t p1 = system.server(PartitionId{1}).store().size();
  EXPECT_EQ(p0 + p1, 2u + 8u);
  EXPECT_GE(p0, 4u);
  EXPECT_GE(p1, 4u);
}

TEST(Repartitioning, DuplicateCreateRejected) {
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 2);
  CommandSpec create;
  create.type = CommandType::kCreate;
  create.objects.emplace_back(ObjectId{50}, VertexId{50});
  create.payload = sim::make_message<KvOp>(KvOp::Kind::kPut, 1);
  std::vector<ScriptedKvDriver::Record> records;
  system.add_client(std::make_unique<ScriptedKvDriver>(
      std::vector<CommandSpec>{create, create}, &records));
  system.run_until(seconds(3));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, core::ReplyStatus::kOk);
  EXPECT_EQ(records[1].status, core::ReplyStatus::kNok);
}

TEST(Repartitioning, DeleteRemovesVertexEverywhere) {
  core::System system(base_config(true), workloads::kv_app_factory());
  preload(system, 4);
  CommandSpec del;
  del.type = CommandType::kDelete;
  del.objects.emplace_back(ObjectId{1}, VertexId{1});
  del.payload = sim::make_message<KvOp>(KvOp::Kind::kGet, 0);
  std::vector<ScriptedKvDriver::Record> records;
  system.add_client(std::make_unique<ScriptedKvDriver>(
      std::vector<CommandSpec>{del, op({1}, KvOp::Kind::kGet, 0)}, &records));
  system.run_until(seconds(3));
  ASSERT_EQ(records.size(), 2u);
  // After the delete, the oracle no longer knows the vertex.
  EXPECT_EQ(records[1].status, core::ReplyStatus::kNok);
}

TEST(Repartitioning, HintReportWeightsMatchHandCounts) {
  // One DynaStar partition executes a fixed script twice; the hint batch
  // covers all six commands, so one HintReport carries the merged weights.
  core::SystemConfig config = base_config(/*eager=*/true);
  config.num_partitions = 1;
  config.hint_batch_commands = 6;
  core::System system(config, workloads::kv_app_factory());
  core::Assignment assignment;
  for (std::uint64_t k = 0; k <= 10; ++k) {
    assignment[VertexId{k}] = PartitionId{0};
    system.preload_object(ObjectId{k}, VertexId{k}, PartitionId{0},
                          workloads::KvObject(k));
  }
  // A second object homed at vertex 1: the first command lists vertex 1
  // twice, and the hint counts it once.
  system.preload_object(ObjectId{100}, VertexId{1}, PartitionId{0},
                        workloads::KvObject(100));
  system.preload_assignment(assignment);

  CommandSpec duplicate = op({1, 2}, KvOp::Kind::kPut, 5);
  duplicate.objects.emplace_back(ObjectId{100}, VertexId{1});
  const CommandSpec pair = op({3, 4}, KvOp::Kind::kGet, 0);
  // More than 8 vertices: a star around the first one (10), not a clique.
  const CommandSpec star =
      op({10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, KvOp::Kind::kGet, 0);
  std::vector<ScriptedKvDriver::Record> records;
  system.add_client(std::make_unique<ScriptedKvDriver>(
      std::vector<CommandSpec>{duplicate, pair, star, duplicate, pair, star},
      &records));
  system.run_until(seconds(5));
  ASSERT_EQ(records.size(), 6u);
  for (const auto& r : records) ASSERT_EQ(r.status, core::ReplyStatus::kOk);

  // Per run of the script: vertices 1-4 appear in two commands, 5-10 in
  // one; edges are {1,2}, {3,4} and the star's {v,10} for v in 1..9.
  std::map<std::uint64_t, std::int64_t> want_vertices;
  for (std::uint64_t v = 1; v <= 10; ++v) want_vertices[v] = v <= 4 ? 4 : 2;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> want_edges;
  want_edges[{1, 2}] = 2;
  want_edges[{3, 4}] = 2;
  for (std::uint64_t v = 1; v <= 9; ++v) want_edges[{v, 10}] = 2;

  for (std::size_t replica = 0; replica < 2; ++replica) {
    const auto compact = system.oracle(replica).graph().compact();
    const auto& g = compact.graph;
    std::map<std::uint64_t, std::int64_t> vertices;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> edges;
    for (std::uint32_t i = 0; i < g.num_vertices(); ++i) {
      const std::uint64_t id = compact.ids[i];
      if (want_vertices.contains(id)) vertices[id] = g.vertex_weights[i];
      for (std::size_t e = g.xadj[i]; e < g.xadj[i + 1]; ++e) {
        const std::uint64_t other = compact.ids[g.adjacency[e]];
        if (id < other) edges[{id, other}] = g.edge_weights[e];
      }
    }
    EXPECT_EQ(vertices, want_vertices) << "oracle replica " << replica;
    EXPECT_EQ(edges, want_edges) << "oracle replica " << replica;
  }
}

}  // namespace
}  // namespace dynastar
