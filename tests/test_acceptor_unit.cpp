// AcceptorCore unit tests against a mock Env — no simulator involved.
// Verifies the single-slot Paxos acceptor rules directly: promise
// monotonicity, vote recording, nacks, and durable-state semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "paxos/acceptor.h"
#include "paxos/messages.h"
#include "tests/test_util.h"

namespace dynastar::paxos {
namespace {

using testutil::MockEnv;

struct Noop final : sim::Message {};

class AcceptorUnit : public ::testing::Test {
 protected:
  AcceptorUnit() : core_(env_, GroupId{0}, storage_) {}

  void prepare(Ballot ballot, Slot from = 0, ProcessId from_proc = ProcessId{1}) {
    core_.handle(from_proc, sim::make_message<Prepare>(GroupId{0}, ballot, from));
  }
  void accept(Ballot ballot, Slot slot, ProcessId from_proc = ProcessId{1}) {
    core_.handle(from_proc, sim::make_message<Accept>(GroupId{0}, ballot, slot,
                                                      0, sim::make_message<Noop>()));
  }

  MockEnv env_;
  AcceptorStorage storage_;
  AcceptorCore core_;
};

TEST_F(AcceptorUnit, PromisesFreshBallot) {
  prepare(5);
  EXPECT_EQ(storage_.promised, 5u);
  const auto* promise = env_.last_as<Promise>();
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(promise->ballot, 5u);
  EXPECT_TRUE(promise->accepted.empty());
}

TEST_F(AcceptorUnit, NacksStaleBallot) {
  prepare(5);
  prepare(3);
  const auto* nack = env_.last_as<Nack>();
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->promised, 5u);
  EXPECT_EQ(storage_.promised, 5u);  // unchanged
}

TEST_F(AcceptorUnit, EqualBallotRePrepareIsNacked) {
  prepare(5);
  prepare(5);
  EXPECT_NE(env_.last_as<Nack>(), nullptr);
}

TEST_F(AcceptorUnit, AcceptsAtPromisedBallot) {
  prepare(5);
  accept(5, 0);
  const auto* accepted = env_.last_as<Accepted>();
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->slot, 0u);
  ASSERT_TRUE(storage_.votes.contains(0));
  EXPECT_EQ(storage_.votes.at(0).ballot, 5u);
}

TEST_F(AcceptorUnit, AcceptsHigherBallotWithoutPrepare) {
  // Phase 2 at a higher ballot implies the promise.
  prepare(5);
  accept(8, 0);
  EXPECT_NE(env_.last_as<Accepted>(), nullptr);
  EXPECT_EQ(storage_.promised, 8u);
}

TEST_F(AcceptorUnit, RejectsAcceptBelowPromise) {
  prepare(5);
  accept(4, 0);
  EXPECT_NE(env_.last_as<Nack>(), nullptr);
  EXPECT_FALSE(storage_.votes.contains(0));
}

TEST_F(AcceptorUnit, PromiseReturnsVotesFromSlot) {
  prepare(1);
  accept(1, 0);
  accept(1, 1);
  accept(1, 2);
  env_.sent.clear();
  prepare(9, /*from=*/1);
  const auto* promise = env_.last_as<Promise>();
  ASSERT_NE(promise, nullptr);
  ASSERT_EQ(promise->accepted.size(), 2u);  // slots 1 and 2 only
  EXPECT_EQ(promise->accepted[0].slot, 1u);
  EXPECT_EQ(promise->accepted[1].slot, 2u);
}

TEST_F(AcceptorUnit, LaterBallotOverwritesVote) {
  prepare(1);
  accept(1, 0);
  accept(7, 0);
  EXPECT_EQ(storage_.votes.at(0).ballot, 7u);
}

TEST_F(AcceptorUnit, IgnoresOtherGroups) {
  const bool handled = core_.handle(
      ProcessId{1}, sim::make_message<Prepare>(GroupId{3}, 1, 0));
  EXPECT_FALSE(handled);
  EXPECT_EQ(storage_.promised, kNoBallot);
}

TEST_F(AcceptorUnit, CommittedPrefixTrimsOldVotes) {
  prepare(1);
  for (Slot s = 0; s < 10; ++s) accept(1, s);
  EXPECT_EQ(storage_.votes.size(), 10u);
  // An accept with a committed prefix far ahead trims everything below
  // committed - window; with committed=5000 and window 4096, slots < 904 go.
  core_.handle(ProcessId{1},
               sim::make_message<Accept>(GroupId{0}, 1, 5000, 5000,
                                         sim::make_message<Noop>()));
  EXPECT_FALSE(storage_.votes.contains(0));
  EXPECT_FALSE(storage_.votes.contains(9));
  EXPECT_TRUE(storage_.votes.contains(5000));
}

TEST_F(AcceptorUnit, StorageSurvivesCoreRebuild) {
  prepare(4);
  accept(4, 0);
  // Simulate crash-recovery: new core over the same storage.
  AcceptorCore recovered(env_, GroupId{0}, storage_);
  env_.sent.clear();
  recovered.handle(ProcessId{2}, sim::make_message<Prepare>(GroupId{0}, 2, 0));
  EXPECT_NE(env_.last_as<Nack>(), nullptr);  // remembers promised=4
}

TEST_F(AcceptorUnit, VoteWindowMatchesMapModel) {
  // The map the slot-indexed window replaced, driven by the same rules:
  // reject below the promise, record the vote, then drop every vote below
  // committed - 4096. Random accepts arrive out of order, leave gaps,
  // revisit slots at higher ballots, straggle in far below the trim line
  // and carry non-monotone commit points; every Promise, size() and
  // contains() must match the model's.
  constexpr Slot kWindow = 4096;
  Ballot promised = kNoBallot;
  std::map<Slot, AcceptedEntry> model;
  Rng rng(20190707);
  Slot frontier = 0;
  Ballot ballot = 1;
  std::size_t promises_checked = 0;
  std::size_t trims = 0;

  for (int step = 0; step < 40'000; ++step) {
    if (rng.chance(0.8)) ++frontier;
    const double roll = rng.uniform01();
    if (roll < 0.03) {
      // Phase 1 at a fresh ballot, from a random slot.
      const Slot from = rng.uniform(0, frontier + 16);
      ballot = (promised == kNoBallot ? ballot : promised) + 1;
      env_.sent.clear();
      core_.handle(ProcessId{1},
                   sim::make_message<Prepare>(GroupId{0}, ballot, from));
      promised = ballot;
      const auto* promise = env_.last_as<Promise>();
      ASSERT_NE(promise, nullptr);
      std::vector<AcceptedEntry> expected;
      for (auto it = model.lower_bound(from); it != model.end(); ++it)
        expected.push_back(it->second);
      ASSERT_EQ(promise->accepted.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(promise->accepted[i].slot, expected[i].slot);
        EXPECT_EQ(promise->accepted[i].ballot, expected[i].ballot);
        EXPECT_EQ(promise->accepted[i].value, expected[i].value);
      }
      ++promises_checked;
      continue;
    }
    Slot slot;
    if (roll < 0.08) {
      slot = rng.uniform(0, frontier);  // a straggler, maybe below the trim
    } else {
      slot = frontier + rng.uniform(0, 16);
      slot = slot >= 8 ? slot - 8 : 0;  // out of order, gaps, re-votes
    }
    if (rng.chance(0.02)) ++ballot;  // a new leader re-votes at a higher ballot
    Ballot b = ballot;
    if (rng.chance(0.05) && b > 1) b -= 1;  // stale: nacked once superseded
    Slot committed = frontier >= 64 ? frontier - rng.uniform(0, 64) : 0;
    if (rng.chance(0.1)) committed = rng.uniform(0, frontier);
    const sim::MessagePtr value = sim::make_message<Noop>();
    core_.handle(ProcessId{1}, sim::make_message<Accept>(GroupId{0}, b, slot,
                                                         committed, value));
    if (promised == kNoBallot || b >= promised) {
      promised = b;
      model[slot] = AcceptedEntry{slot, b, value};
      if (committed > kWindow) {
        const auto end = model.lower_bound(committed - kWindow);
        if (end != model.begin()) ++trims;
        model.erase(model.begin(), end);
      }
    }
    ASSERT_EQ(storage_.promised, promised) << "step " << step;
    ASSERT_EQ(storage_.votes.size(), model.size()) << "step " << step;
    for (int probe = 0; probe < 4; ++probe) {
      const Slot s = rng.uniform(0, frontier + 16);
      const auto it = model.find(s);
      ASSERT_EQ(storage_.votes.contains(s), it != model.end()) << "slot " << s;
      if (it != model.end()) {
        EXPECT_EQ(storage_.votes.at(s).ballot, it->second.ballot);
        EXPECT_EQ(storage_.votes.at(s).value, it->second.value);
      }
    }
  }
  EXPECT_GT(promises_checked, 1000u);
  EXPECT_GT(trims, 1000u);
  EXPECT_GT(frontier, 4 * kWindow);
}

}  // namespace
}  // namespace dynastar::paxos
