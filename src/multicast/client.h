// Client-side a-mcast helper for processes that are not group members
// (application clients). Assigns uids and per-group FIFO sequence numbers
// and transmits to every replica of each destination group.
//
// Sends are retained until every destination group acknowledges receipt
// (McastAck); the owner decides when to retransmit unacked sends — the
// DynaStar client does so from its command-timeout path, which bounds
// retransmission traffic by the client's own backoff schedule.
//
// The outbox is a vector in uid order (uids only grow, so a send appends)
// and each entry's unacked groups are a bitmask over its sorted group list,
// so a send allocates no container node.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "multicast/messages.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::multicast {

class McastClient {
 public:
  struct OutEntry {
    Uid uid = 0;
    McastDataPtr data;
    /// Bit i set: data->groups[i] has not acked yet.
    std::uint64_t unacked = 0;
  };

  /// Sender state captured into a checkpoint (the env/topology refs stay
  /// with the owning incarnation). Payloads are immutable shared pointers.
  struct State {
    std::uint64_t next_uid = 0;
    std::map<GroupId, std::uint64_t> seq_per_group;
    std::vector<OutEntry> outbox;  // ascending uid
  };

  McastClient(sim::Env& env, const paxos::Topology& topology)
      : env_(env), topology_(topology) {}

  [[nodiscard]] State capture() const {
    return State{next_uid_, seq_per_group_, outbox_};
  }

  /// Restores sender state after a crash; the owner re-drives delivery via
  /// retransmit_unacked() (receivers dedupe by uid).
  void restore(const State& s) {
    next_uid_ = s.next_uid;
    seq_per_group_ = s.seq_per_group;
    outbox_ = s.outbox;
  }

  /// Atomically multicasts `payload` to `groups`; returns the message uid.
  Uid amcast(std::vector<GroupId> groups, sim::MessagePtr payload) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    assert(groups.size() <= 64);  // one unacked bit per group
    const Uid uid = (env_.self().value() << 32) | ++next_uid_;
    std::vector<std::pair<GroupId, std::uint64_t>> seqs;
    seqs.reserve(groups.size());
    for (GroupId g : groups) seqs.emplace_back(g, ++seq_per_group_[g]);
    auto data = sim::make_message<McastData>(
        uid, env_.self().value(), env_.self(), std::move(groups),
        std::move(seqs), std::move(payload));
    const std::size_t n = data->groups.size();
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    outbox_.push_back(OutEntry{uid, std::move(data), all});
    transmit(outbox_.back());
    return uid;
  }

  /// Consumes McastAcks addressed to this sender; returns false for any
  /// other message type.
  bool handle(const sim::MessagePtr& msg) {
    const auto* ack = sim::as<McastAck>(msg.get());
    if (ack == nullptr) return false;
    auto it = std::lower_bound(
        outbox_.begin(), outbox_.end(), ack->uid,
        [](const OutEntry& e, Uid uid) { return e.uid < uid; });
    if (it == outbox_.end() || it->uid != ack->uid) return true;
    const std::vector<GroupId>& groups = it->data->groups;
    auto g = std::lower_bound(groups.begin(), groups.end(), ack->group);
    if (g == groups.end() || *g != ack->group) return true;
    it->unacked &= ~(std::uint64_t{1} << (g - groups.begin()));
    if (it->unacked == 0) outbox_.erase(it);
    return true;
  }

  /// Retransmits every send that still has unacked destination groups, in
  /// uid (i.e. submission) order.
  void retransmit_unacked() {
    for (const OutEntry& entry : outbox_) transmit(entry);
  }

  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }

 private:
  void transmit(const OutEntry& entry) {
    auto msg = sim::make_message<McastSend>(entry.data);
    // Ascending bit index is ascending group id.
    for (std::uint64_t bits = entry.unacked; bits != 0; bits &= bits - 1) {
      const GroupId dest = entry.data->groups[std::countr_zero(bits)];
      for (ProcessId replica : topology_.group(dest).replicas) {
        env_.send_message(replica, msg);
      }
    }
  }

  sim::Env& env_;
  const paxos::Topology& topology_;
  std::uint64_t next_uid_ = 0;
  std::map<GroupId, std::uint64_t> seq_per_group_;
  std::vector<OutEntry> outbox_;  // sends awaiting group acks, by uid
};

}  // namespace dynastar::multicast
