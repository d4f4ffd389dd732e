// Outbox: the sender side of atomic multicast, the one implementation both
// application clients (McastClient) and replicated group senders
// (MemberCore) use. It stamps each message with the sender's next FIFO seq
// at every destination group, retains it until each destination group acks
// receipt (McastAck), and transmits it to the groups that have not. The
// caller chooses uids and the sender key and decides when to transmit.
//
// Entries are a vector in stamp order, and each entry's unacked groups are a
// bitmask over its sorted group list, so a send allocates no container node.
// Acks are matched by uid without assuming uid order: group senders derive
// their uids by hashing.
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

class Outbox {
 public:
  struct Entry {
    McastDataPtr data;
    /// Bit i set: data->groups[i] has not acked yet.
    std::uint64_t unacked = 0;
    SimTime last_tx = 0;  // last transmission (age-gates repairs)
  };

  /// Builds message `uid` on channel `sender` to `groups` (sorted and
  /// deduplicated here), stamped with the channel's next seq at each group,
  /// and retains it as unacked by every group. Transmits nothing.
  Entry& stamp(Uid uid, std::uint64_t sender, ProcessId origin,
               std::vector<GroupId> groups, sim::MessagePtr payload) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    const std::size_t n = groups.size();
    assert(n <= 64);  // one unacked bit per group
    std::vector<std::pair<GroupId, std::uint64_t>> seqs;
    seqs.reserve(n);
    for (GroupId g : groups) seqs.emplace_back(g, ++seq_per_group_[g]);
    auto data = sim::make_message<McastData>(uid, sender, origin,
                                             std::move(groups),
                                             std::move(seqs),
                                             std::move(payload));
    entries_.push_back(Entry{
        std::move(data),
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1});
    return entries_.back();
  }

  /// Records `group`'s ack of `uid` and erases the entry once every
  /// destination group has acked. Returns false when no entry holds `uid`
  /// (a late duplicate, or an ack meant for another sender).
  bool ack(Uid uid, GroupId group) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [uid](const Entry& e) { return e.data->uid == uid; });
    if (it == entries_.end()) return false;
    const std::vector<GroupId>& groups = it->data->groups;
    auto g = std::lower_bound(groups.begin(), groups.end(), group);
    if (g != groups.end() && *g == group)
      it->unacked &= ~(std::uint64_t{1} << (g - groups.begin()));
    if (it->unacked == 0) entries_.erase(it);
    return true;
  }

  /// Sends `entry` to every replica of each destination group that has not
  /// acked it, in ascending group order, and stamps its last_tx.
  static void transmit(Entry& entry, sim::Env& env,
                       const paxos::Topology& topology) {
    entry.last_tx = env.now();
    auto msg = sim::make_message<McastSend>(entry.data);
    // Ascending bit index is ascending group id.
    for (std::uint64_t bits = entry.unacked; bits != 0; bits &= bits - 1) {
      const GroupId dest = entry.data->groups[std::countr_zero(bits)];
      for (ProcessId replica : topology.group(dest).replicas)
        env.send_message(replica, msg);
    }
  }

  /// Entries still unacked by some destination group, in stamp order.
  std::vector<Entry>& entries() { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::map<GroupId, std::uint64_t> seq_per_group_;  // last seq stamped
  std::vector<Entry> entries_;
};

}  // namespace dynastar::multicast
