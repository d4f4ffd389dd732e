// Multi-Paxos tests: agreement, total order across replicas, leader
// failover, message loss, and acceptor crash/recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "paxos/nodes.h"
#include "paxos/replica.h"
#include "sim/process.h"
#include "tests/test_util.h"

namespace dynastar::paxos {
namespace {

using testutil::Payload;

/// Node hosting a bare ReplicaCore; `delivered` records its delivery
/// sequence.
class ReplicaNode final : public sim::Process, public testutil::FakeHost {
 public:
  ReplicaNode(ProcessId id, sim::World& world, const Topology& topology,
              GroupId group)
      : sim::Process(id, world) {
    core_ = std::make_unique<ReplicaCore>(*this, topology, group, *this, *this);
  }
  void on_start() override { core_->start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }
  ReplicaCore& core() { return *core_; }

 private:
  std::unique_ptr<ReplicaCore> core_;
};

struct Cluster {
  explicit Cluster(std::uint64_t seed = 1, sim::NetworkConfig net = {})
      : world(net, seed) {
    GroupDef def;
    def.id = GroupId{0};
    def.replicas = {ProcessId{0}, ProcessId{1}};
    def.acceptors = {ProcessId{2}, ProcessId{3}, ProcessId{4}};
    topology.add_group(def);
    replicas.push_back(&world.spawn<ReplicaNode>(topology, GroupId{0}));
    replicas.push_back(&world.spawn<ReplicaNode>(topology, GroupId{0}));
    for (int i = 0; i < 3; ++i)
      acceptors.push_back(&world.spawn<AcceptorNode>(GroupId{0}));
  }

  sim::World world;
  Topology topology;
  std::vector<ReplicaNode*> replicas;
  std::vector<AcceptorNode*> acceptors;
};

TEST(Paxos, OrdersSubmittedValues) {
  Cluster cluster;
  cluster.world.run_until(milliseconds(100));  // leader bootstrap
  for (std::uint64_t v = 0; v < 50; ++v) cluster.replicas[0]->core().submit(
      sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(2));
  ASSERT_EQ(cluster.replicas[0]->delivered.size(), 50u);
  for (std::uint64_t v = 0; v < 50; ++v)
    EXPECT_EQ(cluster.replicas[0]->delivered[v], v);  // FIFO from one submitter
}

TEST(Paxos, ReplicasAgreeOnOrder) {
  Cluster cluster;
  cluster.world.run_until(milliseconds(100));
  // Submit from both replicas (the non-leader forwards).
  for (std::uint64_t v = 0; v < 40; ++v)
    cluster.replicas[v % 2]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(2));
  EXPECT_EQ(cluster.replicas[0]->delivered.size(), 40u);
  EXPECT_EQ(cluster.replicas[0]->delivered, cluster.replicas[1]->delivered);
}

TEST(Paxos, SurvivesMessageLossAndDuplication) {
  sim::NetworkConfig net;
  net.drop_probability = 0.05;
  net.duplicate_probability = 0.05;
  Cluster cluster(7, net);
  cluster.world.run_until(milliseconds(200));
  for (std::uint64_t v = 0; v < 30; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(10));
  // Loss can delay but (with retry via elections/catch-up) all values from
  // the leader's batch buffer eventually decide; order must match.
  const auto& d0 = cluster.replicas[0]->delivered;
  const auto& d1 = cluster.replicas[1]->delivered;
  const std::size_t common = std::min(d0.size(), d1.size());
  for (std::size_t i = 0; i < common; ++i) EXPECT_EQ(d0[i], d1[i]);
  EXPECT_GT(common, 0u);
}

TEST(Paxos, LeaderFailoverPreservesOrderAndResumesProgress) {
  Cluster cluster;
  cluster.world.run_until(milliseconds(100));
  for (std::uint64_t v = 0; v < 20; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(1));
  ASSERT_TRUE(cluster.replicas[0]->core().is_leader());

  cluster.world.crash(cluster.replicas[0]->id());
  cluster.world.run_until(seconds(2));  // election timeout + phase 1
  EXPECT_TRUE(cluster.replicas[1]->core().is_leader());

  for (std::uint64_t v = 100; v < 120; ++v)
    cluster.replicas[1]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(4));
  const auto& delivered = cluster.replicas[1]->delivered;
  ASSERT_GE(delivered.size(), 40u);
  // Prefix decided by the old leader is preserved.
  for (std::uint64_t v = 0; v < 20; ++v) EXPECT_EQ(delivered[v], v);
  // New leader's values all present after the prefix.
  for (std::uint64_t v = 100; v < 120; ++v) {
    EXPECT_NE(std::find(delivered.begin(), delivered.end(), v),
              delivered.end());
  }
}

TEST(Paxos, AcceptorCrashRecoveryKeepsSafety) {
  Cluster cluster;
  cluster.world.run_until(milliseconds(100));
  for (std::uint64_t v = 0; v < 10; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(1));

  // Crash one acceptor (quorum of 2/3 remains), keep going.
  cluster.world.crash(cluster.acceptors[0]->id());
  for (std::uint64_t v = 10; v < 20; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(2));
  // Recover it; its durable promises/votes survive the crash.
  cluster.world.recover(cluster.acceptors[0]->id());
  for (std::uint64_t v = 20; v < 30; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(4));

  const auto& delivered = cluster.replicas[0]->delivered;
  ASSERT_EQ(delivered.size(), 30u);
  for (std::uint64_t v = 0; v < 30; ++v) EXPECT_EQ(delivered[v], v);
  EXPECT_EQ(cluster.replicas[1]->delivered, delivered);
}

TEST(Paxos, TwoAcceptorCrashesStallThenRecover) {
  Cluster cluster;
  cluster.world.run_until(milliseconds(100));
  cluster.world.crash(cluster.acceptors[0]->id());
  cluster.world.crash(cluster.acceptors[1]->id());
  for (std::uint64_t v = 0; v < 5; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(2));
  EXPECT_TRUE(cluster.replicas[0]->delivered.empty());  // no quorum

  cluster.world.recover(cluster.acceptors[0]->id());
  // Values sit in in_flight_ with no retransmit path until a new ballot;
  // resubmitting after recovery must succeed.
  for (std::uint64_t v = 10; v < 15; ++v)
    cluster.replicas[0]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(6));
  EXPECT_GE(cluster.replicas[0]->delivered.size(), 5u);
}

// Property sweep: agreement and gap-freedom over random fault seeds.
class PaxosSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosSeedSweep, AgreementUnderLossReorderJitter) {
  sim::NetworkConfig net;
  net.jitter = microseconds(400);  // heavy reordering
  net.drop_probability = 0.02;
  net.duplicate_probability = 0.02;
  Cluster cluster(GetParam(), net);
  cluster.world.run_until(milliseconds(200));
  for (std::uint64_t v = 0; v < 60; ++v)
    cluster.replicas[v % 2]->core().submit(sim::make_message<Payload>(v));
  cluster.world.run_until(seconds(15));

  const auto& d0 = cluster.replicas[0]->delivered;
  const auto& d1 = cluster.replicas[1]->delivered;
  const std::size_t common = std::min(d0.size(), d1.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(d0[i], d1[i]) << "divergence at index " << i << " seed "
                            << GetParam();
  }
  EXPECT_GT(common, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dynastar::paxos
