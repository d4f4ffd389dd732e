#include "multicast/member.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace dynastar::multicast {

namespace {
/// CPU cost of advancing the multicast state machine by one log entry.
constexpr SimTime kEntryCost = microseconds(2);

/// Leader re-drives in-flight coordination this often.
constexpr SimTime kRepairInterval = milliseconds(50);

/// Sender keys of replicated group senders start here; client process ids
/// stay below it.
constexpr std::uint64_t kGroupSenderBase = 1ULL << 40;

std::uint64_t group_sender_key(GroupId g) {
  return kGroupSenderBase + g.value();
}

bool has_proposal(const MemberState::Proposals& proposals, GroupId group) {
  return std::any_of(proposals.begin(), proposals.end(),
                     [group](const auto& p) { return p.first == group; });
}

/// Records `group`'s proposal unless it already has one; true if recorded.
bool add_proposal(MemberState::Proposals& proposals, GroupId group,
                  Timestamp ts) {
  if (has_proposal(proposals, group)) return false;
  proposals.emplace_back(group, ts);
  return true;
}
}  // namespace

bool MemberState::started(const McastData& data, GroupId group) const {
  if (data.groups.size() > 1) return seen_.contains(data.uid);
  const auto channel = channels_.find(data.sender);
  return channel != channels_.end() &&
         data.seq_for(group) < channel->second.next_seq;
}

MemberCore::MemberCore(sim::Env& env, const paxos::Topology& topology,
                       GroupId group, Application& app,
                       paxos::ReplicaConfig paxos_config)
    : env_(env),
      topology_(topology),
      group_(group),
      app_(app),
      replica_(env, topology, group, *this, app, paxos_config) {}

void MemberCore::start() {
  replica_.start();
  arm_repair_timer();
}

MemberCore::State MemberCore::capture_state() const {
  return State{*this, replica_.checkpoint_state()};
}

void MemberCore::restore_state(const State& s) {
  // A live replica installing a peer's checkpoint (Paxos catchup) must not
  // drop McastSends it receipt-acked but the peer has not started: the ack
  // stopped the sender's retransmissions, so this stash may hold the only
  // surviving copy. Carry those entries across the install; resubmission is
  // deduplicated by started(). (After a crash the map starts empty — no-op.)
  std::vector<std::pair<Uid, Unstarted>> carried;
  for (const auto& [uid, entry] : unstarted_) {
    if (!s.member.started(*entry.data, group_))
      carried.emplace_back(uid, entry);
  }
  MemberState::operator=(s.member);
  for (auto& [uid, entry] : carried)  // installed entries win on a shared uid
    unstarted_.try_emplace(uid, std::move(entry));
  replica_.restore(s.replica);
}

void MemberCore::start_recovered() {
  replica_.start_recovered();
  arm_repair_timer();
}

void MemberCore::arm_repair_timer() {
  // Periodic repair: lost McastSends / TsProposals / Finals / group-sender
  // transmissions are re-driven; every path is idempotent (log-side and
  // receiver-side dedupe), so duplicates are harmless. Unstarted entries are
  // re-submitted by EVERY replica (a follower's submit is forwarded to the
  // leader), not just the leader — the send may have reached only followers.
  env_.start_timer(kRepairInterval, [this] {
    const SimTime now = env_.now();
    resubmit_unstarted([now](const Unstarted& entry) {
      return now - entry.since >= kRepairInterval;
    });
    if (replica_.is_leader()) {
      for (auto& [uid, pending] : pending_) {
        if (pending.data->groups.size() > 1 && !pending.final_ts.has_value()) {
          resend_to_silent_groups(pending);
          broadcast_ts_proposal(pending);
          maybe_submit_final(uid);
        }
      }
      for (Outbox::Entry& entry : outbox_.entries()) {
        if (now - entry.last_tx >= kRepairInterval)
          Outbox::transmit(entry, env_, topology_);
      }
    }
    arm_repair_timer();
  });
}

bool MemberCore::handle(ProcessId from, const sim::MessagePtr& msg) {
  if (replica_.handle(from, msg)) return true;
  switch (msg->kind()) {
    case sim::Kind::kMcastSend:
      on_send(from, *sim::as<McastSend>(msg.get()));
      return true;
    case sim::Kind::kMcastAck: {
      const auto& ack = *sim::as<McastAck>(msg.get());
      return outbox_.ack(ack.uid, ack.group);
    }
    case sim::Kind::kTsProposal:
      on_ts_proposal(*sim::as<TsProposal>(msg.get()));
      return true;
    default:
      return false;
  }
}

void MemberCore::on_send(ProcessId from, const McastSend& msg) {
  const Uid uid = msg.data->uid;
  const auto& groups = msg.data->groups;
  if (std::find(groups.begin(), groups.end(), group_) == groups.end()) return;
  // Ack receipt even for duplicates — the sender's previous ack may have
  // been lost, and it keeps retransmitting until one arrives.
  env_.send_message(from, sim::make_message<McastAck>(uid, group_));
  if (started(*msg.data, group_) || unstarted_.contains(uid)) return;
  if (replica_.is_leader() && groups.size() == 1 &&
      msg.data->sender < kGroupSenderBase && !app_.admit(*msg.data)) {
    // Shed at admission: order a shed-flagged Start so every replica makes
    // the identical decision from the log. Not stashed in unstarted_ — if
    // this submit is lost (leader crash), followers hold the send in their
    // own unstarted_ and the repair timer re-drives a plain Start, which is
    // a benign late admission.
    replica_.submit(sim::make_message<StartEntry>(msg.data, /*shed=*/true));
    return;
  }
  unstarted_[uid] = Unstarted{msg.data, env_.now()};
  if (replica_.is_leader())
    replica_.submit(sim::make_message<StartEntry>(msg.data));
}

void MemberCore::on_ts_proposal(const TsProposal& msg) {
  auto it = pending_.find(msg.uid);
  if (it == pending_.end()) {
    auto seen = seen_.find(msg.uid);
    if (seen == seen_.end()) {
      Proposals& early = early_proposals_[msg.uid];
      std::erase_if(early, [&](const auto& p) {
        return p.first == msg.from_group;
      });
      early.emplace_back(msg.from_group, msg.ts);
    } else if (!msg.reply && msg.from_group != group_) {
      // Already ordered here — possibly already delivered, in which case the
      // repair timer no longer re-drives our proposal. The sender may be
      // polling because its copy of it was lost; answer with the remembered
      // timestamp so the peer group can finalize. Replies are marked so two
      // already-delivered groups never answer each other in a loop.
      for (ProcessId replica : topology_.group(msg.from_group).replicas) {
        env_.send_message(replica,
                          sim::make_message<TsProposal>(
                              msg.uid, group_, seen->second, /*reply=*/true));
      }
    }
    return;
  }
  if (add_proposal(it->second.proposals, msg.from_group, msg.ts))
    maybe_submit_final(msg.uid);
}

void MemberCore::deliver(const sim::MessagePtr& value) {
  env_.consume_cpu(kEntryCost);
  switch (value->kind()) {
    case sim::Kind::kStartEntry: {
      const auto& start = *sim::as<StartEntry>(value.get());
      process_start(start.data, start.shed);
      return;
    }
    case sim::Kind::kFinalEntry: {
      const auto& final_entry = *sim::as<FinalEntry>(value.get());
      process_final(final_entry.uid, final_entry.ts);
      return;
    }
    default:
      return;  // unknown entries are no-ops
  }
}

void MemberCore::process_start(const McastDataPtr& data, bool shed) {
  if (started(*data, group_)) {
    unstarted_.erase(data->uid);
    return;
  }
  auto& channel = channels_[data->sender];
  const std::uint64_t seq = data->seq_for(group_);
  if (seq != channel.next_seq) {
    if (seq > channel.next_seq) channel.held[seq] = HeldStart{data, shed};
    return;
  }
  McastDataPtr current = data;
  bool current_shed = shed;
  while (true) {
    // Admit `current`: assign the group-local timestamp. Shed messages still
    // take a timestamp and advance the FIFO channel — the shed flag only
    // changes which delivery callback fires.
    unstarted_.erase(current->uid);
    const bool single_group = current->groups.size() == 1;
    Pending pending;
    pending.data = current;
    pending.shed = current_shed;
    pending.local_ts = ++clock_;
    if (single_group) {
      // Final at admission; no peer group proposes, so no proposals.
      pending.final_ts = pending.local_ts;
    } else {
      seen_.emplace(current->uid, pending.local_ts);
      pending.proposals.reserve(current->groups.size());
      pending.proposals.emplace_back(group_, pending.local_ts);
      if (auto early = early_proposals_.find(current->uid);
          early != early_proposals_.end()) {
        for (const auto& [g, ts] : early->second)
          add_proposal(pending.proposals, g, ts);
        early_proposals_.erase(early);
      }
    }
    auto [it, inserted] = pending_.emplace(current->uid, std::move(pending));
    assert(inserted);
    if (!single_group && replica_.is_leader()) {
      broadcast_ts_proposal(it->second);
      maybe_submit_final(current->uid);
    }
    ++channel.next_seq;
    auto next = channel.held.find(channel.next_seq);
    if (next == channel.held.end()) break;
    current = next->second.data;
    current_shed = next->second.shed;
    channel.held.erase(next);
  }
  try_deliver();
}

void MemberCore::process_final(Uid uid, Timestamp ts) {
  auto it = pending_.find(uid);
  if (it == pending_.end() || it->second.final_ts.has_value()) return;
  clock_ = std::max(clock_, ts);
  it->second.final_ts = ts;
  try_deliver();
}

void MemberCore::maybe_submit_final(Uid uid) {
  if (!replica_.is_leader()) return;
  auto it = pending_.find(uid);
  if (it == pending_.end()) return;
  const Pending& pending = it->second;
  if (pending.final_ts.has_value() || final_submitted_.contains(uid)) return;
  if (pending.proposals.size() < pending.data->groups.size()) return;
  Timestamp final_ts = 0;
  for (const auto& [g, ts] : pending.proposals) final_ts = std::max(final_ts, ts);
  final_submitted_.try_emplace(uid);
  replica_.submit(sim::make_message<FinalEntry>(uid, final_ts));
}

void MemberCore::resend_to_silent_groups(const Pending& pending) {
  // A destination group can lose the original McastSend *after* acking it:
  // the ack goes out on receipt, but a lagging replica's unstarted stash
  // dies with a catchup snapshot install (or a crash). The sender then
  // retransmits no more, that group never proposes, and every group that did
  // admit the message wedges behind it. Any admitted group re-offers the
  // payload to groups it has no proposal from; receivers deduplicate.
  auto msg = sim::make_message<McastSend>(pending.data);
  for (GroupId dest : pending.data->groups) {
    if (dest == group_ || has_proposal(pending.proposals, dest)) continue;
    for (ProcessId replica : topology_.group(dest).replicas)
      env_.send_message(replica, msg);
  }
}

void MemberCore::broadcast_ts_proposal(const Pending& pending) {
  for (GroupId dest : pending.data->groups) {
    if (dest == group_) continue;
    for (ProcessId replica : topology_.group(dest).replicas) {
      env_.send_message(replica, sim::make_message<TsProposal>(
                                     pending.data->uid, group_, pending.local_ts));
    }
  }
}

void MemberCore::try_deliver() {
  while (!pending_.empty()) {
    // The deliverable message is the pending minimum by (lower bound, uid),
    // provided its final timestamp is known: every other pending message can
    // only end up with a larger (ts, uid) key.
    auto min_it = pending_.end();
    Timestamp min_lb = 0;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      const Timestamp lb = it->second.final_ts.value_or(it->second.local_ts);
      if (min_it == pending_.end() || lb < min_lb ||
          (lb == min_lb && it->first < min_it->first)) {
        min_it = it;
        min_lb = lb;
      }
    }
    if (!min_it->second.final_ts.has_value()) return;
    McastDataPtr data = min_it->second.data;
    const bool shed = min_it->second.shed;
    final_submitted_.erase(min_it->first);
    early_proposals_.erase(min_it->first);
    pending_.erase(min_it);
    ++delivered_count_;
    env_.trace(TracePoint::kMcastDelivered, data->uid, 0, group_.value());
    if (shed)
      app_.on_shed_deliver(*data);
    else
      app_.on_adeliver(*data);
  }
}

template <typename Due>
void MemberCore::resubmit_unstarted(Due due) {
  std::vector<Uid> uids;
  for (const auto& [uid, entry] : unstarted_)
    if (due(entry)) uids.push_back(uid);
  std::sort(uids.begin(), uids.end());
  for (Uid uid : uids) {
    Unstarted& entry = unstarted_.at(uid);
    entry.since = env_.now();
    replica_.submit(sim::make_message<StartEntry>(entry.data));
  }
}

void MemberCore::on_lead() {
  // A previous leader may have died between ordering and coordinating; make
  // every in-flight step happen again (receivers deduplicate).
  resubmit_unstarted([](const Unstarted&) { return true; });
  for (auto& [uid, pending] : pending_) {
    if (pending.data->groups.size() > 1 && !pending.final_ts.has_value()) {
      resend_to_silent_groups(pending);
      broadcast_ts_proposal(pending);
      maybe_submit_final(uid);
    }
  }
  for (Outbox::Entry& entry : outbox_.entries())
    Outbox::transmit(entry, env_, topology_);
}

void MemberCore::amcast_as_group(Uid uid, std::vector<GroupId> groups,
                                 sim::MessagePtr payload) {
  Outbox::Entry& entry =
      outbox_.stamp(uid, group_sender_key(group_), env_.self(),
                    std::move(groups), std::move(payload));
  if (replica_.is_leader()) Outbox::transmit(entry, env_, topology_);
}

}  // namespace dynastar::multicast
