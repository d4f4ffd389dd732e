// Network-partition behavior: Paxos and the full system under blocked
// links (not just crashed processes) — the harder asymmetric-failure cases.
#include <gtest/gtest.h>

#include "core/system.h"
#include "paxos/nodes.h"
#include "paxos/replica.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

using testutil::Payload;

class ReplicaNode final : public sim::Process, public testutil::FakeHost {
 public:
  ReplicaNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
              GroupId group)
      : sim::Process(id, world) {
    core_ = std::make_unique<paxos::ReplicaCore>(*this, topology, group, *this,
                                                 *this);
  }
  void on_start() override { core_->start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }
  paxos::ReplicaCore& core() { return *core_; }

 private:
  std::unique_ptr<paxos::ReplicaCore> core_;
};

TEST(NetworkPartition, IsolatedPaxosLeaderIsSuperseded) {
  sim::World world({}, 3);
  paxos::Topology topology;
  paxos::GroupDef def;
  def.id = GroupId{0};
  def.replicas = {ProcessId{0}, ProcessId{1}};
  def.acceptors = {ProcessId{2}, ProcessId{3}, ProcessId{4}};
  topology.add_group(def);
  auto& r0 = world.spawn<ReplicaNode>(topology, GroupId{0});
  auto& r1 = world.spawn<ReplicaNode>(topology, GroupId{0});
  std::vector<paxos::AcceptorNode*> acceptors;
  for (int i = 0; i < 3; ++i)
    acceptors.push_back(&world.spawn<paxos::AcceptorNode>(GroupId{0}));

  world.run_until(milliseconds(200));
  ASSERT_TRUE(r0.core().is_leader());

  // Cut the leader off from every acceptor and its peer (asymmetric: it can
  // still *send* heartbeats nowhere useful). The follower must take over.
  for (auto* acceptor : acceptors) {
    world.network().block_link(r0.id(), acceptor->id());
    world.network().block_link(acceptor->id(), r0.id());
  }
  world.network().block_link(r0.id(), r1.id());
  world.network().block_link(r1.id(), r0.id());

  // Let the follower detect the silence and win an election first; values
  // submitted before that would be forwarded into the blocked link (the
  // replica layer does not retry lost forwards — clients do, at their
  // layer).
  world.run_until(seconds(2));
  EXPECT_TRUE(r1.core().is_leader());
  for (std::uint64_t v = 0; v < 10; ++v)
    r1.core().submit(sim::make_message<Payload>(v));
  world.run_until(seconds(3));
  EXPECT_EQ(r1.delivered.size(), 10u);

  // Heal: the deposed leader re-joins as follower and catches up.
  world.network().unblock_all();
  world.run_until(seconds(6));
  EXPECT_EQ(r0.delivered, r1.delivered);
}

TEST(NetworkPartition, MinorityAcceptorIsolationIsHarmless) {
  core::System system(testutil::config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  testutil::preload(system, 16);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(2));
  const double before = system.metrics().series("completed").total();

  // Isolate one acceptor of partition 0 in both directions.
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).acceptors[0];
  for (ProcessId replica :
       system.topology().group(core::group_of(PartitionId{0})).replicas) {
    system.world().network().block_link(replica, victim);
    system.world().network().block_link(victim, replica);
  }
  system.run_until(seconds(6));
  const double after = system.metrics().series("completed").total() - before;
  EXPECT_GT(after, before * 0.5)  // remaining quorum keeps full service
      << "throughput collapsed under minority acceptor isolation";
}

}  // namespace
}  // namespace dynastar
