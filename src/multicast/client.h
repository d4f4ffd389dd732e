// Client-side a-mcast helper for processes that are not group members
// (application clients). Assigns uids and per-group FIFO sequence numbers
// and transmits to every replica of each destination group.
//
// Sends are retained until every destination group acknowledges receipt
// (McastAck); the owner decides when to retransmit unacked sends — the
// DynaStar client does so from its command-timeout path, which bounds
// retransmission traffic by the client's own backoff schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "multicast/messages.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::multicast {

class McastClient {
 public:
  struct OutEntry {
    McastDataPtr data;
    std::set<GroupId> unacked;
  };

  /// Sender state captured into a checkpoint (the env/topology refs stay
  /// with the owning incarnation). Payloads are immutable shared pointers.
  struct State {
    std::uint64_t next_uid = 0;
    std::map<GroupId, std::uint64_t> seq_per_group;
    std::map<Uid, OutEntry> outbox;
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
    const Uid uid = (env_.self().value() << 32) | ++next_uid_;
    std::vector<std::pair<GroupId, std::uint64_t>> seqs;
    seqs.reserve(groups.size());
    for (GroupId g : groups) seqs.emplace_back(g, ++seq_per_group_[g]);
    auto data = sim::make_message<McastData>(
        uid, env_.self().value(), env_.self(), std::move(groups),
        std::move(seqs), std::move(payload));
    auto& entry = outbox_[uid];
    entry.data = data;
    entry.unacked.insert(data->groups.begin(), data->groups.end());
    transmit(entry);
    return uid;
  }

  /// Consumes McastAcks addressed to this sender; returns false for any
  /// other message type.
  bool handle(const sim::MessagePtr& msg) {
    const auto* ack = sim::as<McastAck>(msg.get());
    if (ack == nullptr) return false;
    auto it = outbox_.find(ack->uid);
    if (it != outbox_.end()) {
      it->second.unacked.erase(ack->group);
      if (it->second.unacked.empty()) outbox_.erase(it);
    }
    return true;
  }

  /// Retransmits every send that still has unacked destination groups, in
  /// uid (i.e. submission) order.
  void retransmit_unacked() {
    for (auto& [uid, entry] : outbox_) transmit(entry);
  }

  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }

 private:
  void transmit(const OutEntry& entry) {
    auto msg = sim::make_message<McastSend>(entry.data);
    for (GroupId dest : entry.unacked) {
      for (ProcessId replica : topology_.group(dest).replicas) {
        env_.send_message(replica, msg);
      }
    }
  }

  sim::Env& env_;
  const paxos::Topology& topology_;
  std::uint64_t next_uid_ = 0;
  std::map<GroupId, std::uint64_t> seq_per_group_;
  std::map<Uid, OutEntry> outbox_;  // sends awaiting group acks
};

}  // namespace dynastar::multicast
