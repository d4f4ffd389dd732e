// Atomic multicast property tests (§2.2 of the paper): integrity, agreement
// within groups, FIFO per sender for same-destination messages, and the
// pairwise-consistent (acyclic / prefix) delivery order across groups.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "multicast/client.h"
#include "multicast/member.h"
#include "multicast/outbox.h"
#include "paxos/nodes.h"
#include "sim/process.h"
#include "tests/order_checker.h"
#include "tests/test_util.h"

namespace dynastar::multicast {
namespace {

using testutil::Payload;

/// Node hosting a bare MemberCore; `delivered_uids` and `delivered` record
/// its a-delivery order.
class MemberNode final : public sim::Process, public testutil::FakeHost {
 public:
  MemberNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             GroupId group)
      : sim::Process(id, world) {
    core_ = std::make_unique<MemberCore>(*this, topology, group, *this);
  }
  void on_start() override { core_->start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    if (msg->kind() == sim::Kind::kTsProposal)
      proposals.push_back(*sim::as<TsProposal>(msg.get()));
    core_->handle(from, msg);
  }
  MemberCore& core() { return *core_; }

  /// Every TsProposal this node received, in arrival order.
  std::vector<TsProposal> proposals;

 private:
  std::unique_ptr<MemberCore> core_;
};

/// A test client that a-mcasts a scripted sequence of (groups, tag) pairs
/// with optional spacing.
class SenderNode final : public sim::Process {
 public:
  struct Item {
    std::vector<GroupId> groups;
    std::uint64_t tag;
  };
  SenderNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             std::vector<Item> script, SimTime spacing)
      : sim::Process(id, world),
        client_(*this, topology),
        script_(std::move(script)),
        spacing_(spacing) {}

  void on_start() override { send_next(); }
  void on_message(ProcessId, const sim::MessagePtr&) override {}

 private:
  void send_next() {
    if (index_ >= script_.size()) return;
    const Item& item = script_[index_++];
    client_.amcast(item.groups, sim::make_message<Payload>(item.tag));
    start_timer(spacing_, [this] { send_next(); });
  }

  McastClient client_;
  std::vector<SenderNode::Item> script_;
  SimTime spacing_;
  std::size_t index_ = 0;
};

/// A process that only records the McastAcks sent to it.
class AckRecorder final : public sim::Process {
 public:
  using sim::Process::Process;
  void on_message(ProcessId, const sim::MessagePtr& msg) override {
    if (msg->kind() == sim::Kind::kMcastAck)
      acked.push_back(sim::as<McastAck>(msg.get())->uid);
  }
  std::vector<Uid> acked;
};

/// A single-group McastData from `sender` to group 0 with fifo seq `seq`.
McastDataPtr single_group_data(std::uint64_t sender, std::uint64_t seq,
                               ProcessId origin, std::uint64_t tag) {
  return sim::make_message<McastData>(
      (sender << 32) | seq, sender, origin, std::vector<GroupId>{GroupId{0}},
      std::vector<std::pair<GroupId, std::uint64_t>>{{GroupId{0}, seq}},
      sim::make_message<Payload>(tag));
}

struct MulticastWorld {
  explicit MulticastWorld(std::size_t num_groups, std::uint64_t seed = 1,
                          sim::NetworkConfig net = {})
      : world(net, seed) {
    std::uint64_t next = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      paxos::GroupDef def;
      def.id = GroupId{g};
      def.replicas = {ProcessId{next}, ProcessId{next + 1}};
      def.acceptors = {ProcessId{next + 2}, ProcessId{next + 3},
                       ProcessId{next + 4}};
      next += 5;
      topology.add_group(def);
    }
    members.resize(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      members[g].push_back(&world.spawn<MemberNode>(topology, GroupId{g}));
      members[g].push_back(&world.spawn<MemberNode>(topology, GroupId{g}));
      for (int a = 0; a < 3; ++a) world.spawn<paxos::AcceptorNode>(GroupId{g});
    }
  }

  sim::World world;
  paxos::Topology topology;
  std::vector<std::vector<MemberNode*>> members;  // [group][replica]
};

/// Checks pairwise-consistent order: for any two messages delivered by two
/// different observers, their relative order matches.
void expect_consistent_order(const std::vector<Uid>& a,
                             const std::vector<Uid>& b) {
  std::map<Uid, std::size_t> pos_a;
  for (std::size_t i = 0; i < a.size(); ++i) pos_a[a[i]] = i;
  std::vector<std::size_t> shared_positions;
  for (Uid uid : b) {
    auto it = pos_a.find(uid);
    if (it != pos_a.end()) shared_positions.push_back(it->second);
  }
  for (std::size_t i = 1; i < shared_positions.size(); ++i) {
    EXPECT_LT(shared_positions[i - 1], shared_positions[i])
        << "inconsistent relative delivery order";
  }
}

TEST(Multicast, SingleGroupDeliversOnceInAgreement) {
  MulticastWorld mw(1);
  std::vector<SenderNode::Item> script;
  for (std::uint64_t i = 0; i < 30; ++i) script.push_back({{GroupId{0}}, i});
  mw.world.spawn<SenderNode>(mw.topology, script, microseconds(50));
  mw.world.run_until(seconds(3));

  auto& r0 = mw.members[0][0]->delivered_uids;
  auto& r1 = mw.members[0][1]->delivered_uids;
  EXPECT_EQ(r0.size(), 30u);
  EXPECT_EQ(r0, r1);
  // Integrity: no duplicates.
  auto sorted = r0;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Multicast, FifoPerSenderSameDestination) {
  MulticastWorld mw(1);
  std::vector<SenderNode::Item> script;
  for (std::uint64_t i = 0; i < 40; ++i) script.push_back({{GroupId{0}}, i});
  // Zero spacing: many concurrent multicasts from one sender.
  mw.world.spawn<SenderNode>(mw.topology, script, 0);
  mw.world.run_until(seconds(3));
  const auto& tags = mw.members[0][0]->delivered;
  ASSERT_EQ(tags.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(tags[i], i);
}

TEST(Multicast, MultiGroupDeliveredAtAllDestinations) {
  MulticastWorld mw(3);
  std::vector<SenderNode::Item> script;
  for (std::uint64_t i = 0; i < 20; ++i)
    script.push_back({{GroupId{0}, GroupId{1}, GroupId{2}}, i});
  mw.world.spawn<SenderNode>(mw.topology, script, microseconds(100));
  mw.world.run_until(seconds(5));
  for (auto& group : mw.members) {
    for (auto* member : group) {
      EXPECT_EQ(member->delivered_uids.size(), 20u);
    }
  }
  expect_consistent_order(mw.members[0][0]->delivered_uids,
                          mw.members[1][0]->delivered_uids);
  expect_consistent_order(mw.members[1][0]->delivered_uids,
                          mw.members[2][0]->delivered_uids);
}

TEST(Multicast, GroupSenderEmitsExactlyOnce) {
  // amcast_as_group is called on every replica but transmitted by the
  // leader only; destinations must deliver one copy.
  MulticastWorld mw(2);
  mw.world.run_until(milliseconds(200));
  for (auto* member : mw.members[0]) {
    member->core().amcast_as_group(0xabcd, {GroupId{1}},
                                   sim::make_message<Payload>(1));
  }
  mw.world.run_until(seconds(2));
  EXPECT_EQ(mw.members[1][0]->delivered_uids.size(), 1u);
  EXPECT_EQ(mw.members[1][1]->delivered_uids.size(), 1u);
}

// Property sweep: mixed single/multi-group traffic from several senders
// under jitter (heavy reordering) must preserve acyclic pairwise order and
// per-group agreement.
class McastSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McastSeedSweep, MixedTrafficConsistency) {
  sim::NetworkConfig net;
  net.jitter = microseconds(300);
  MulticastWorld mw(3, GetParam(), net);

  Rng rng(GetParam() * 7919 + 1);
  for (int s = 0; s < 4; ++s) {
    std::vector<SenderNode::Item> script;
    for (std::uint64_t i = 0; i < 25; ++i) {
      std::vector<GroupId> groups;
      const auto pick = rng.uniform(0, 5);
      if (pick < 3) {
        groups = {GroupId{pick % 3}};
      } else if (pick < 5) {
        groups = {GroupId{0}, GroupId{(pick % 2) + 1}};
      } else {
        groups = {GroupId{0}, GroupId{1}, GroupId{2}};
      }
      script.push_back({groups, i});
    }
    mw.world.spawn<SenderNode>(mw.topology, script,
                               microseconds(rng.uniform(10, 200)));
  }
  mw.world.run_until(seconds(10));

  // Agreement within every group.
  for (auto& group : mw.members)
    EXPECT_EQ(group[0]->delivered_uids, group[1]->delivered_uids);
  // Pairwise-consistent order across groups.
  expect_consistent_order(mw.members[0][0]->delivered_uids,
                          mw.members[1][0]->delivered_uids);
  expect_consistent_order(mw.members[0][0]->delivered_uids,
                          mw.members[2][0]->delivered_uids);
  expect_consistent_order(mw.members[1][0]->delivered_uids,
                          mw.members[2][0]->delivered_uids);
  // Global atomic order: the union over all observers must be acyclic
  // (stronger than pairwise — catches three-group cycles).
  std::vector<std::vector<Uid>> observations;
  for (auto& group : mw.members)
    for (auto* member : group) observations.push_back(member->delivered_uids);
  EXPECT_TRUE(dynastar::testing::global_order_acyclic(observations));
  // Liveness: everything sent to group 0 arrived (no multicast lost).
  EXPECT_GT(mw.members[0][0]->delivered_uids.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McastSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Multicast, LeaderCrashDoesNotLoseMessages) {
  MulticastWorld mw(2);
  mw.world.run_until(milliseconds(200));
  std::vector<SenderNode::Item> script;
  for (std::uint64_t i = 0; i < 30; ++i)
    script.push_back({{GroupId{0}, GroupId{1}}, i});
  mw.world.spawn<SenderNode>(mw.topology, script, milliseconds(5));
  mw.world.run_until(milliseconds(250));  // mid-stream
  // Crash group 0's initial leader (replica 0).
  mw.world.crash(mw.members[0][0]->id());
  mw.world.run_until(seconds(10));
  // The surviving replica of group 0 and both replicas of group 1 agree and
  // eventually deliver everything.
  EXPECT_EQ(mw.members[0][1]->delivered_uids.size(), 30u);
  EXPECT_EQ(mw.members[1][0]->delivered_uids.size(), 30u);
  expect_consistent_order(mw.members[0][1]->delivered_uids,
                          mw.members[1][0]->delivered_uids);
}

TEST(Multicast, RestoreCarriesUnstartedSendsTheInstalledStateLacks) {
  // A live follower installs the leader's checkpoint. It holds McastSends
  // for A and B in unstarted_; the installed state started B but never saw
  // A. A must survive the install, be resubmitted and end up delivered; B
  // must not be delivered twice. Both steps run as simulator events, so
  // everything they send is ordered with the rest of the run.
  MulticastWorld mw(1);
  const ProcessId origin =
      mw.world.spawn<SenderNode>(mw.topology, std::vector<SenderNode::Item>{},
                                 0)
          .id();
  MemberNode& leader = *mw.members[0][0];
  MemberNode& follower = *mw.members[0][1];
  const auto send = [&](std::uint64_t sender, std::uint64_t tag) {
    return sim::make_message<McastSend>(
        single_group_data(sender, 1, origin, tag));
  };
  const auto a = send(7, 1);
  const auto b = send(8, 2);

  bool leader_led = false;
  mw.world.sim().schedule_at(milliseconds(200), [&] {
    leader_led = leader.core().is_leader();
    // Cut the follower off, so it sees neither the log nor its resubmits.
    for (std::uint64_t p = 0; p < 5; ++p) {  // the group's replicas+acceptors
      if (ProcessId{p} == follower.id()) continue;
      mw.world.network().block_link(ProcessId{p}, follower.id());
      mw.world.network().block_link(follower.id(), ProcessId{p});
    }
    leader.core().handle(origin, b);
    follower.core().handle(origin, a);
    follower.core().handle(origin, b);
  });
  std::vector<std::uint64_t> leader_before;
  std::size_t follower_before = 0;
  MemberCore::State installed;
  mw.world.sim().schedule_at(milliseconds(400), [&] {
    leader_before = leader.delivered;
    follower_before = follower.delivered_uids.size();
    installed = leader.core().capture_state();
    follower.core().restore_state(installed);
    mw.world.network().unblock_all();
  });
  mw.world.run_until(seconds(2));

  ASSERT_TRUE(leader_led);
  ASSERT_EQ(leader_before, (std::vector<std::uint64_t>{2}));
  ASSERT_EQ(follower_before, 0u);
  ASSERT_TRUE(installed.member.started(*b->data, GroupId{0}));
  ASSERT_FALSE(installed.member.started(*a->data, GroupId{0}));
  EXPECT_EQ(leader.delivered, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(follower.delivered, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(follower.core().delivered_count(), 2u);
}

TEST(Multicast, DuplicateSingleGroupSendAfterDeliveryIsAckedOnly) {
  // A retransmitted single-group McastSend that reaches a group after it
  // delivered the message: both replicas ack it again, neither stashes nor
  // resubmits it, and it is delivered once.
  MulticastWorld mw(1);
  AckRecorder& origin = mw.world.spawn<AckRecorder>();
  const auto send = sim::make_message<McastSend>(
      single_group_data(9, 1, origin.id(), 5));
  const auto handle_at_both = [&] {
    for (MemberNode* member : mw.members[0])
      member->core().handle(origin.id(), send);
  };
  mw.world.sim().schedule_at(milliseconds(200), handle_at_both);
  bool stashed = true;
  mw.world.sim().schedule_at(milliseconds(600), [&] {
    handle_at_both();
    stashed = false;
    for (MemberNode* member : mw.members[0])
      stashed |= !member->core().capture_state().member.unstarted_.empty();
  });
  mw.world.run_until(seconds(1));

  EXPECT_EQ(origin.acked, std::vector<Uid>(4, send->data->uid));
  EXPECT_FALSE(stashed);
  for (MemberNode* member : mw.members[0]) {
    EXPECT_EQ(member->delivered, (std::vector<std::uint64_t>{5}));
    EXPECT_EQ(member->core().delivered_count(), 1u);
    EXPECT_TRUE(member->core().capture_state().member.unstarted_.empty());
  }
}

TEST(Multicast, HeldOutOfOrderStartIsNotStartedUntilTheGapFills) {
  // seq 2 is ordered before seq 1: the channel holds it back, so it has not
  // started, and once seq 1 arrives both deliver in seq order.
  MulticastWorld mw(1);
  const ProcessId origin = mw.world.spawn<AckRecorder>().id();
  const McastDataPtr first = single_group_data(9, 1, origin, 1);
  const McastDataPtr second = single_group_data(9, 2, origin, 2);
  const auto handle_at_both = [&](const McastDataPtr& data) {
    const auto send = sim::make_message<McastSend>(data);
    for (MemberNode* member : mw.members[0])
      member->core().handle(origin, send);
  };
  mw.world.sim().schedule_at(milliseconds(200),
                             [&] { handle_at_both(second); });
  std::optional<MemberCore::State> held;
  std::size_t delivered_while_held = 0;
  mw.world.sim().schedule_at(milliseconds(500), [&] {
    held = mw.members[0][0]->core().capture_state();
    delivered_while_held = mw.members[0][0]->delivered.size();
    handle_at_both(first);
  });
  mw.world.run_until(seconds(1));

  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(held->member.started(*second, GroupId{0}));
  EXPECT_FALSE(held->member.started(*first, GroupId{0}));
  EXPECT_EQ(delivered_while_held, 0u);
  const MemberCore::State after = mw.members[0][0]->core().capture_state();
  EXPECT_TRUE(after.member.started(*first, GroupId{0}));
  EXPECT_TRUE(after.member.started(*second, GroupId{0}));
  for (MemberNode* member : mw.members[0])
    EXPECT_EQ(member->delivered, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Multicast, DeliveredMultiGroupMessageAnswersALateProposalPoll) {
  // After both groups delivered a two-group message, group 1 polls group 0
  // again (as it does when its copy of group 0's proposal was lost). Group 0
  // no longer has the message pending but still answers every replica of
  // group 1 with the timestamp it assigned at admission.
  MulticastWorld mw(2);
  mw.world.spawn<SenderNode>(
      mw.topology,
      std::vector<SenderNode::Item>{{{GroupId{0}, GroupId{1}}, 3}}, 0);
  mw.world.run_until(milliseconds(500));
  ASSERT_EQ(mw.members[0][0]->delivered_uids.size(), 1u);
  ASSERT_EQ(mw.members[1][0]->delivered_uids.size(), 1u);
  const Uid uid = mw.members[0][0]->delivered_uids[0];
  const MemberCore::State state = mw.members[0][0]->core().capture_state();
  ASSERT_TRUE(state.member.seen_.contains(uid));
  const Timestamp remembered = state.member.seen_.at(uid);

  MemberNode& poller = *mw.members[1][0];
  mw.world.sim().schedule_at(milliseconds(600), [&] {
    for (MemberNode* member : mw.members[1]) member->proposals.clear();
    mw.members[0][0]->core().handle(
        poller.id(), sim::make_message<TsProposal>(uid, GroupId{1}, 1));
  });
  mw.world.run_until(milliseconds(700));

  for (MemberNode* member : mw.members[1]) {
    ASSERT_EQ(member->proposals.size(), 1u);
    const TsProposal& answer = member->proposals[0];
    EXPECT_EQ(answer.uid, uid);
    EXPECT_EQ(answer.from_group, GroupId{0});
    EXPECT_EQ(answer.ts, remembered);
    EXPECT_TRUE(answer.reply);
  }
}

TEST(Multicast, SingleGroupDeliveriesLeaveSeenEmpty) {
  // Single-group messages are deduplicated by their FIFO channel, so the
  // multi-group table stays empty however many of them are delivered.
  constexpr std::uint64_t kMessages = 10000;
  MulticastWorld mw(1);
  for (int s = 0; s < 4; ++s) {
    std::vector<SenderNode::Item> script;
    for (std::uint64_t i = 0; i < kMessages / 4; ++i)
      script.push_back({{GroupId{0}}, i});
    mw.world.spawn<SenderNode>(mw.topology, script, microseconds(40));
  }
  mw.world.run_until(seconds(3));

  for (MemberNode* member : mw.members[0]) {
    EXPECT_EQ(member->core().delivered_count(), kMessages);
    const MemberCore::State state = member->core().capture_state();
    EXPECT_TRUE(state.member.seen_.empty());
    EXPECT_TRUE(state.member.unstarted_.empty());
  }
}

/// Groups 0..n-1, group g served by replicas 10g and 10g + 1.
paxos::Topology outbox_topology(std::uint64_t groups) {
  paxos::Topology topology;
  for (std::uint64_t g = 0; g < groups; ++g) {
    paxos::GroupDef def;
    def.id = GroupId{g};
    def.replicas = {ProcessId{10 * g}, ProcessId{10 * g + 1}};
    def.acceptors = {ProcessId{10 * g + 2}, ProcessId{10 * g + 3},
                     ProcessId{10 * g + 4}};
    topology.add_group(def);
  }
  return topology;
}

TEST(Multicast, OutboxAcksClearOneGroupAtATime) {
  Outbox outbox;
  const Outbox::Entry& entry =
      outbox.stamp(7, /*sender=*/3, ProcessId{3},
                   {GroupId{2}, GroupId{0}, GroupId{1}, GroupId{0}},
                   sim::make_message<Payload>(1));
  EXPECT_EQ(entry.data->groups,
            (std::vector<GroupId>{GroupId{0}, GroupId{1}, GroupId{2}}));
  EXPECT_EQ(entry.unacked, 0b111u);
  for (GroupId g : entry.data->groups) EXPECT_EQ(entry.data->seq_for(g), 1u);

  EXPECT_TRUE(outbox.ack(7, GroupId{1}));
  EXPECT_EQ(outbox.entries().front().unacked, 0b101u);
  EXPECT_TRUE(outbox.ack(7, GroupId{1}));  // a duplicate ack changes nothing
  EXPECT_EQ(outbox.entries().front().unacked, 0b101u);
  EXPECT_TRUE(outbox.ack(7, GroupId{0}));
  EXPECT_EQ(outbox.entries().front().unacked, 0b100u);
  EXPECT_TRUE(outbox.ack(7, GroupId{2}));
  EXPECT_EQ(outbox.size(), 0u) << "a fully acked entry was kept";
  EXPECT_FALSE(outbox.ack(7, GroupId{2}));

  // Seqs count per group across messages.
  const Outbox::Entry& next = outbox.stamp(
      8, 3, ProcessId{3}, {GroupId{2}, GroupId{3}},
      sim::make_message<Payload>(2));
  EXPECT_EQ(next.data->seq_for(GroupId{2}), 2u);
  EXPECT_EQ(next.data->seq_for(GroupId{3}), 1u);
}

TEST(Multicast, OutboxTransmitReachesOnlyUnackedGroupsInAscendingOrder) {
  const paxos::Topology topology = outbox_topology(3);
  testutil::MockEnv env(ProcessId{50});
  env.now_ = milliseconds(5);
  Outbox outbox;
  outbox.stamp(7, 50, ProcessId{50}, {GroupId{2}, GroupId{1}, GroupId{0}},
               sim::make_message<Payload>(1));
  ASSERT_TRUE(outbox.ack(7, GroupId{1}));
  Outbox::transmit(outbox.entries().front(), env, topology);

  std::vector<ProcessId> to;
  for (const auto& [dest, msg] : env.sent) {
    ASSERT_EQ(msg->kind(), sim::Kind::kMcastSend);
    EXPECT_EQ(sim::as<McastSend>(msg.get())->data->uid, 7u);
    to.push_back(dest);
  }
  EXPECT_EQ(to, (std::vector<ProcessId>{ProcessId{0}, ProcessId{1},
                                        ProcessId{20}, ProcessId{21}}));
  EXPECT_EQ(outbox.entries().front().last_tx, milliseconds(5));
}

TEST(Multicast, OutboxAcksUidsThatArriveOutOfOrder) {
  // Group senders hash their uids, so entries are not in uid order.
  const std::vector<Uid> uids = {0x9000, 0x1000, 0x5000, 0x3000};
  Outbox outbox;
  for (Uid uid : uids) {
    outbox.stamp(uid, 1, ProcessId{1}, {GroupId{0}, GroupId{1}},
                 sim::make_message<Payload>(uid));
  }
  const auto held = [&outbox] {
    std::vector<Uid> out;
    for (const Outbox::Entry& e : outbox.entries()) out.push_back(e.data->uid);
    return out;
  };
  EXPECT_TRUE(outbox.ack(0x5000, GroupId{1}));
  EXPECT_TRUE(outbox.ack(0x5000, GroupId{0}));
  EXPECT_EQ(held(), (std::vector<Uid>{0x9000, 0x1000, 0x3000}));
  EXPECT_TRUE(outbox.ack(0x3000, GroupId{0}));
  EXPECT_TRUE(outbox.ack(0x1000, GroupId{0}));
  EXPECT_TRUE(outbox.ack(0x1000, GroupId{1}));
  EXPECT_EQ(held(), (std::vector<Uid>{0x9000, 0x3000}));
  EXPECT_EQ(outbox.entries()[0].unacked, 0b11u);
  EXPECT_EQ(outbox.entries()[1].unacked, 0b10u);
}

TEST(Multicast, AckForAnotherSendersUidReachesTheColocatedClient) {
  // A replica hosts both a group sender (its member) and a McastClient. An
  // ack the member's outbox does not hold must come back unconsumed so the
  // caller can hand it to the client.
  const paxos::Topology topology = outbox_topology(2);
  testutil::MockEnv env(ProcessId{0});
  testutil::FakeHost host;
  MemberCore member(env, topology, GroupId{0}, host);
  McastClient client(env, topology);
  member.amcast_as_group(0xabcd, {GroupId{1}}, sim::make_message<Payload>(1));
  const Uid uid = client.amcast({GroupId{1}}, sim::make_message<Payload>(2));
  ASSERT_EQ(member.outbox_depth(), 1u);
  ASSERT_EQ(client.unacked(), 1u);

  const sim::MessagePtr client_ack = sim::make_message<McastAck>(uid, GroupId{1});
  EXPECT_FALSE(member.handle(ProcessId{10}, client_ack));
  EXPECT_TRUE(client.handle(client_ack));
  EXPECT_EQ(client.unacked(), 0u);
  EXPECT_EQ(member.outbox_depth(), 1u);

  EXPECT_TRUE(member.handle(ProcessId{10},
                            sim::make_message<McastAck>(0xabcd, GroupId{1})));
  EXPECT_EQ(member.outbox_depth(), 0u);
}

}  // namespace
}  // namespace dynastar::multicast
