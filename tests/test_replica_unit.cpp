// ReplicaCore unit tests against a mock Env: leader bootstrap, phase-1
// value adoption, batching, decision dissemination, step-down, and which
// snapshot a restored replica serves.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "paxos/replica.h"
#include "tests/test_util.h"

namespace dynastar::paxos {
namespace {

using testutil::FakeHost;
using testutil::MockEnv;
using testutil::Payload;

Topology two_replica_topology() {
  Topology topology;
  GroupDef def;
  def.id = GroupId{0};
  def.replicas = {ProcessId{0}, ProcessId{1}};
  def.acceptors = {ProcessId{2}, ProcessId{3}, ProcessId{4}};
  topology.add_group(def);
  return topology;
}

class ReplicaUnit : public ::testing::Test {
 protected:
  ReplicaUnit()
      : topology_(two_replica_topology()),
        env_(ProcessId{0}),
        core_(env_, topology_, GroupId{0}, host_, host_) {}

  /// Answers the outstanding Prepare with promises from a quorum.
  void grant_promises(Ballot ballot,
                      std::vector<AcceptedEntry> accepted = {}) {
    core_.handle(ProcessId{2},
                 sim::make_message<Promise>(GroupId{0}, ballot, accepted));
    core_.handle(ProcessId{3},
                 sim::make_message<Promise>(GroupId{0}, ballot,
                                            std::vector<AcceptedEntry>{}));
  }

  /// Acks the Accept for `slot` from a quorum of acceptors.
  void grant_accepts(Ballot ballot, Slot slot) {
    core_.handle(ProcessId{2}, sim::make_message<Accepted>(GroupId{0}, ballot, slot));
    core_.handle(ProcessId{3}, sim::make_message<Accepted>(GroupId{0}, ballot, slot));
  }

  Topology topology_;
  MockEnv env_;
  FakeHost host_;
  ReplicaCore core_;
};

TEST_F(ReplicaUnit, BootstrapsPhaseOneAtBallotZero) {
  core_.start();
  auto prepares = env_.all_of<Prepare>();
  ASSERT_EQ(prepares.size(), 3u);  // one per acceptor
  EXPECT_EQ(prepares[0]->ballot, 0u);
  EXPECT_FALSE(core_.is_leader());
  grant_promises(0);
  EXPECT_TRUE(core_.is_leader());
}

TEST_F(ReplicaUnit, BatchesSubmissionsIntoOneSlot) {
  core_.start();
  grant_promises(0);
  core_.submit(sim::make_message<Payload>(1));
  core_.submit(sim::make_message<Payload>(2));
  core_.submit(sim::make_message<Payload>(3));
  EXPECT_TRUE(env_.all_of<Accept>().empty());  // still inside the window
  env_.advance_to(microseconds(200));          // batch flush timer
  auto accepts = env_.all_of<Accept>();
  ASSERT_EQ(accepts.size(), 3u);  // one slot to three acceptors
  EXPECT_EQ(accepts[0]->slot, accepts[1]->slot);
  const auto* batch = dynamic_cast<const Batch*>(accepts[0]->value.get());
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->values.size(), 3u);
}

TEST_F(ReplicaUnit, DeliversAfterQuorumAndDisseminates) {
  core_.start();
  grant_promises(0);
  core_.submit(sim::make_message<Payload>(7));
  env_.advance_to(microseconds(200));
  grant_accepts(0, 0);
  EXPECT_EQ(host_.delivered, (std::vector<std::uint64_t>{7}));
  auto decisions = env_.all_of<Decision>();
  ASSERT_EQ(decisions.size(), 1u);  // to the one other replica
}

TEST_F(ReplicaUnit, AdoptsRecoveredValuesInPhaseOne) {
  core_.start();
  // Acceptor 2 reports an accepted value at slot 0 from an older ballot.
  std::vector<AcceptedEntry> accepted{
      {0, 0, sim::make_message<Payload>(42)}};
  grant_promises(0, accepted);
  // The new leader must re-propose 42 at slot 0, not skip it.
  auto accepts = env_.all_of<Accept>();
  ASSERT_FALSE(accepts.empty());
  EXPECT_EQ(accepts[0]->slot, 0u);
  const auto* payload = dynamic_cast<const Payload*>(accepts[0]->value.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->value, 42u);
  grant_accepts(0, 0);
  EXPECT_EQ(host_.delivered, (std::vector<std::uint64_t>{42}));
}

TEST_F(ReplicaUnit, StepsDownOnHigherBallotNack) {
  core_.start();
  grant_promises(0);
  ASSERT_TRUE(core_.is_leader());
  core_.handle(ProcessId{2}, sim::make_message<Nack>(GroupId{0}, 0, 5));
  EXPECT_FALSE(core_.is_leader());
  EXPECT_EQ(core_.ballot(), 5u);
  // Leader hint follows the new ballot's owner (5 % 2 == replica 1).
  EXPECT_EQ(core_.leader_hint(), ProcessId{1});
}

TEST_F(ReplicaUnit, NonLeaderForwardsSubmissions) {
  MockEnv env(ProcessId{1});
  ReplicaCore follower(env, topology_, GroupId{0}, host_, host_);
  follower.start();  // index 1: follower, arms election timer only
  follower.submit(sim::make_message<Payload>(9));
  // Forwarded to the presumed leader (ballot 0's owner, replica 0).
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].first, ProcessId{0});
  EXPECT_NE(dynamic_cast<const ProposeReq*>(env.sent[0].second.get()), nullptr);
}

TEST_F(ReplicaUnit, DuplicateDecisionsApplyOnce) {
  core_.start();
  grant_promises(0);
  auto value = sim::make_message<Payload>(3);
  core_.handle(ProcessId{1}, sim::make_message<Decision>(GroupId{0}, 0, value));
  core_.handle(ProcessId{1}, sim::make_message<Decision>(GroupId{0}, 0, value));
  EXPECT_EQ(host_.delivered, (std::vector<std::uint64_t>{3}));
}

TEST_F(ReplicaUnit, GapsHoldDeliveryUntilFilled) {
  core_.start();
  grant_promises(0);
  core_.handle(ProcessId{1}, sim::make_message<Decision>(
                                 GroupId{0}, 1, sim::make_message<Payload>(2)));
  EXPECT_TRUE(host_.delivered.empty());  // slot 0 missing
  core_.handle(ProcessId{1}, sim::make_message<Decision>(
                                 GroupId{0}, 0, sim::make_message<Payload>(1)));
  EXPECT_EQ(host_.delivered, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(ReplicaUnit, RestoreClearsTheStableSnapshot) {
  ReplicaConfig config;
  config.checkpoint_interval = 2;  // slots 2 and 4 are boundaries
  ReplicaCore core(env_, topology_, GroupId{0}, host_, host_, config);
  const auto decide = [&](Slot slot) {
    core.handle(ProcessId{1},
                sim::make_message<Decision>(GroupId{0}, slot,
                                            sim::make_message<Payload>(slot)));
  };
  const auto request_chunk = [&] {
    core.handle(ProcessId{1}, sim::make_message<StateChunkReq>(GroupId{0}, 2, 0));
  };
  const auto request_snapshot = [&] {
    core.handle(ProcessId{1},
                sim::make_message<InstallSnapshotReq>(GroupId{0}, 0));
  };
  decide(0);
  decide(1);
  ASSERT_EQ(core.last_checkpoint_slot(), 2u);
  ASSERT_EQ(host_.captures, 1u);  // the boundary capture
  request_chunk();
  ASSERT_EQ(env_.all_of<StateChunk>().size(), 1u);  // served while stable

  // After a restore, a chunk request for the restored slot goes unanswered.
  core.restore(core.checkpoint_state());
  request_chunk();
  EXPECT_EQ(env_.all_of<StateChunk>().size(), 1u);

  // A snapshot request gets the monolithic fresh capture instead.
  request_snapshot();
  const auto* resp = env_.last_as<InstallSnapshotResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->next_slot, 2u);
  const auto* fresh = dynamic_cast<const Payload*>(resp->state.get());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->value, 2u);  // the second capture
  EXPECT_TRUE(env_.all_of<ChunkManifest>().empty());

  // The next boundary captures a stable snapshot, which is offered chunked.
  decide(2);
  decide(3);
  ASSERT_EQ(host_.captures, 3u);
  request_snapshot();
  const auto* manifest = env_.last_as<ChunkManifest>();
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->next_slot, 4u);
  EXPECT_EQ(env_.all_of<InstallSnapshotResp>().size(), 1u);
}

TEST(DecisionLog, MatchesMapModel) {
  // The std::map the window replaced, under the replica's rules: the first
  // value decided at a slot stays, decisions arrive out of order and leave
  // gaps, and the applied prefix is trimmed from below.
  DecisionLog log;
  std::map<Slot, sim::MessagePtr> model;
  Rng rng(20261018);
  Slot frontier = 0;
  Slot floor = 0;
  for (int step = 0; step < 20'000; ++step) {
    if (rng.chance(0.7)) ++frontier;
    // Mostly at or ahead of the frontier; now and then a straggler.
    const Slot ahead = frontier + rng.uniform(0, 24);
    const Slot slot =
        ahead - (rng.chance(0.1) ? std::min<Slot>(ahead, rng.uniform(0, 8)) : 0);
    if (slot >= floor) {  // the replica drops decisions below its floor
      auto value = sim::make_message<Batch>(std::vector<sim::MessagePtr>{});
      log.emplace(slot, value);
      model.emplace(slot, value);
    }
    if (rng.chance(0.05) && frontier > floor) {
      floor += rng.uniform(0, frontier - floor);
      log.trim_below(floor);
      model.erase(model.begin(), model.lower_bound(floor));
    }
    ASSERT_EQ(log.size(), model.size()) << "step " << step;
    const Slot probe = rng.uniform(0, frontier + 32);
    auto it = model.find(probe);
    EXPECT_EQ(log.find(probe), it == model.end() ? nullptr : it->second);
    if (step % 1000 == 0) {
      const Slot from = rng.uniform(0, frontier);
      std::vector<std::pair<Slot, sim::MessagePtr>> got;
      log.for_each_from(from, [&](Slot s, const sim::MessagePtr& v) {
        got.emplace_back(s, v);
      });
      std::vector<std::pair<Slot, sim::MessagePtr>> expected(
          model.lower_bound(from), model.end());
      EXPECT_EQ(got, expected) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace dynastar::paxos
