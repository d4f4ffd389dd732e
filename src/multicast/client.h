// Client-side a-mcast helper for processes that are not group members:
// application clients, and the replica-local senders of STAR epoch markers
// and repartitioning plans. Draws uids from its own counter, stamps per-group
// FIFO seqs through an Outbox and transmits to every replica of each
// destination group.
//
// Sends are retained until every destination group acknowledges receipt
// (McastAck); the owner decides when to retransmit unacked sends — the
// DynaStar client does so from its command-timeout path, which bounds
// retransmission traffic by the client's own backoff schedule.
//
// The sender's counters are never checkpointed or restored. Each incarnation
// of a process sends on a channel of its own (its process id salted with the
// incarnation number) from seq 1 and uid 1, so a restart never reuses or
// skips a (sender, group, seq) or a uid that receivers have already seen.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "multicast/messages.h"
#include "multicast/outbox.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::multicast {

class McastClient {
 public:
  McastClient(sim::Env& env, const paxos::Topology& topology)
      : env_(env),
        topology_(topology),
        channel_(env.self().value() | env.incarnation() << 16) {
    // The channel stays below 2^30: a sender key under the group-sender
    // range, and a uid (channel << 32 | counter) clear of group uid bits.
    assert(env.self().value() < (1u << 16) && env.incarnation() < (1u << 14));
  }

  /// Atomically multicasts `payload` to `groups`; returns the message uid.
  Uid amcast(std::vector<GroupId> groups, sim::MessagePtr payload) {
    const Uid uid = (channel_ << 32) | ++next_uid_;
    Outbox::transmit(outbox_.stamp(uid, channel_, env_.self(),
                                   std::move(groups), std::move(payload)),
                     env_, topology_);
    return uid;
  }

  /// Consumes every McastAck (including late duplicates for sends already
  /// fully acked); returns false for any other message type.
  bool handle(const sim::MessagePtr& msg) {
    const auto* ack = sim::as<McastAck>(msg.get());
    if (ack == nullptr) return false;
    outbox_.ack(ack->uid, ack->group);
    return true;
  }

  /// Retransmits every send that still has unacked destination groups, in
  /// submission order.
  void retransmit_unacked() {
    for (Outbox::Entry& entry : outbox_.entries())
      Outbox::transmit(entry, env_, topology_);
  }

  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }

 private:
  sim::Env& env_;
  const paxos::Topology& topology_;
  const std::uint64_t channel_;  // sender key of this incarnation
  std::uint64_t next_uid_ = 0;
  Outbox outbox_;
};

}  // namespace dynastar::multicast
