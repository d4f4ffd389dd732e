// MemberCore: one group member's view of the atomic multicast protocol.
//
// Owns the group's Paxos replica and drives the multicast state machine from
// the replica's delivered log, so every replica of a group makes identical
// decisions. Network-side events (incoming sends, timestamp proposals) feed
// the leader, which injects the corresponding log entries.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "multicast/messages.h"
#include "multicast/outbox.h"
#include "paxos/replica.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::multicast {

/// Everything a group member makes durable, apart from the Paxos position.
/// MemberCore inherits it privately and its State holds one copy of it, so
/// a field added here is captured and restored with no further edit.
struct MemberState {
  /// Timestamp proposals by group, at most one per group, in arrival
  /// order. Only their maximum and their groups are ever read.
  using Proposals = std::vector<std::pair<GroupId, Timestamp>>;

  struct Pending {
    McastDataPtr data;
    Timestamp local_ts = 0;
    Proposals proposals;  // multi-group only; a single-group one stays empty
    std::optional<Timestamp> final_ts;
    bool shed = false;
  };

  // FIFO holdback: per sender, next expected seq and messages waiting. Each
  // held message carries its log-ordered shed flag.
  struct HeldStart {
    McastDataPtr data;
    bool shed = false;
  };
  struct SenderChannel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, HeldStart> held;
  };

  // McastSends received but not yet seen as Start entries (see unstarted_).
  struct Unstarted {
    McastDataPtr data;
    SimTime since = 0;  // last submission attempt (age-gates resubmits)
  };

  Timestamp clock_ = 0;
  // Iterated by the repair timer and on_lead, whose sends follow this
  // table's iteration order; a different container would reorder them.
  std::unordered_map<Uid, Pending> pending_;
  // Started or delivered multi-group uids, each with the group-local
  // timestamp assigned at admission. The timestamp outlives the pending_
  // entry on purpose: after this group delivers, a peer group whose copy of
  // our proposal was lost still repair-polls with its own proposal, and we
  // must be able to answer (see on_ts_proposal) or that group wedges.
  // Single-group messages never enter it: their sender's FIFO channel
  // already records them (see started()), and no peer group polls for them.
  // Uids are (sender << 32) | seq, so the table needs the mixing hash.
  common::FlatMap<Uid, Timestamp, common::Mix64Hash> seen_;
  std::uint64_t delivered_count_ = 0;

  // Timestamp proposals that arrived before the Start entry was processed
  // (a later proposal from the same group replaces an earlier one).
  common::FlatMap<Uid, Proposals, common::Mix64Hash> early_proposals_;
  // Finals already submitted (leader-side dedupe; log-side dedupe also
  // holds). A set: the mapped byte is unused. Looked up, never iterated.
  common::FlatMap<Uid, bool, common::Mix64Hash> final_submitted_;

  // Keyed by sender key; looked up, never iterated.
  common::FlatMap<std::uint64_t, SenderChannel, common::Mix64Hash> channels_;

  // McastSends received but not yet seen as Start entries; every replica
  // retains (and periodically re-submits, in uid order) them until started,
  // so a send that reached only a follower — or whose leader died — still
  // gets ordered.
  common::FlatMap<Uid, Unstarted, common::Mix64Hash> unstarted_;

  // Group sender: the multicasts this group emitted and its FIFO seqs, the
  // same at every replica (each stamps them at the same log position). Only
  // the leader transmits; it re-sends entries to destination groups that
  // have not acked yet, and fully acked entries are pruned.
  Outbox outbox_;

  /// True once `group` (the member's own group, one of data's destinations)
  /// has started `data`: admitted it from the log and assigned its local
  /// timestamp. A channel admits a sender's messages strictly in seq order
  /// and each (sender, group, seq) names one uid, so a single-group message
  /// has started exactly when its seq is below its channel's next_seq. A
  /// multi-group message is looked up in seen_.
  [[nodiscard]] bool started(const McastData& data, GroupId group) const;
};

/// The application a MemberCore a-delivers to. It also owns the state the
/// group's Paxos replica checkpoints and transfers.
class Application : public paxos::SnapshotOwner {
 public:
  /// Called exactly once per a-delivered message, in the group's delivery
  /// order.
  virtual void on_adeliver(const McastData& data) = 0;
  /// Admission decision, asked by the *leader* before it orders a
  /// single-group message from a client; group-sender traffic is always
  /// admitted. Returning false sheds the message: it is still ordered (as a
  /// shed-flagged Start entry, so every replica advances the sender's FIFO
  /// channel and clock identically) but its delivery goes to
  /// on_shed_deliver instead of on_adeliver. Multi-group messages are never
  /// asked about — shedding at one group would wedge peer groups waiting on
  /// timestamp proposals.
  virtual bool admit(const McastData& data) = 0;
  /// Called, in delivery order, for each message shed at admission.
  virtual void on_shed_deliver(const McastData& data) = 0;

 protected:
  ~Application() = default;
};

class MemberCore : private MemberState, private paxos::Learner {
 public:
  /// A checkpoint of the member: the multicast protocol state plus the
  /// Paxos position. Plain value copies; McastData payloads are immutable
  /// and shared by pointer.
  struct State {
    MemberState member;
    paxos::ReplicaRestart replica;
  };

  MemberCore(sim::Env& env, const paxos::Topology& topology, GroupId group,
             Application& app, paxos::ReplicaConfig paxos_config = {});

  void start();

  /// Captures/restores the full multicast + Paxos-position state for
  /// checkpoints. restore_state() assigns the whole MemberState, keeping
  /// only the local unstarted_ entries the installed state has not
  /// started; it leaves timers untouched, so pair it with start_recovered()
  /// when rejoining after a crash.
  [[nodiscard]] State capture_state() const;
  void restore_state(const State& s);

  /// Rejoins the group after restore_state(): re-arms the repair timer and
  /// the replica's follower liveness (the previous incarnation's timers
  /// never fire). Restored in-flight coordination is re-driven by the
  /// repair timer and on_lead.
  void start_recovered();

  /// Handles Paxos and multicast messages; returns false for anything else
  /// (application messages the caller should dispatch itself). A McastAck
  /// for a multicast this member did not emit also returns false so the
  /// caller can route it to a co-located McastClient.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  /// Deterministic group-sender a-mcast: every replica of this group calls
  /// this with identical arguments while processing the same log position;
  /// only the current leader transmits (others stash for re-emission on
  /// leadership change). `uid` must be derived from replicated state.
  void amcast_as_group(Uid uid, std::vector<GroupId> groups,
                       sim::MessagePtr payload);

  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] bool is_leader() const { return replica_.is_leader(); }
  paxos::ReplicaCore& replica() { return replica_; }
  [[nodiscard]] const paxos::ReplicaCore& replica() const { return replica_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }

  /// Group-sender multicasts awaiting acks from destination groups. Grows
  /// when a destination is saturated or down — a backpressure signal the
  /// oracle's admission gate folds into its load estimate.
  [[nodiscard]] std::size_t outbox_depth() const { return outbox_.size(); }

 private:
  /// Advances the multicast state machine by one delivered log entry.
  void deliver(const sim::MessagePtr& value) override;
  /// Re-drives every in-flight step a previous leader may have dropped.
  void on_lead() override;
  void process_start(const McastDataPtr& data, bool shed);
  void process_final(Uid uid, Timestamp ts);
  void on_send(ProcessId from, const McastSend& msg);
  void on_ts_proposal(const TsProposal& msg);
  void maybe_submit_final(Uid uid);
  void resend_to_silent_groups(const Pending& pending);
  void broadcast_ts_proposal(const Pending& pending);
  void try_deliver();
  /// Re-submits the Start of every unstarted_ entry `due` accepts, in uid
  /// order, and restamps it.
  template <typename Due>
  void resubmit_unstarted(Due due);
  void arm_repair_timer();

  sim::Env& env_;
  const paxos::Topology& topology_;
  GroupId group_;
  Application& app_;
  paxos::ReplicaCore replica_;
};

}  // namespace dynastar::multicast
