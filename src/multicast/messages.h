// Atomic multicast: message and log-entry types.
//
// The protocol is the Skeen-style genuine algorithm used by BaseCast
// (Coelho et al., DSN'17): each destination group orders the message in its
// Paxos log and assigns it a local logical timestamp; destination groups
// exchange their timestamps; the final timestamp is the maximum, and every
// group delivers in (timestamp, uid) order. Only sender and destination
// groups communicate — the multicast is genuine.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/message.h"

namespace dynastar::multicast {

/// Globally unique multicast message id, chosen by the logical sender.
/// Deterministic senders (replicated groups emitting outputs) derive it from
/// replicated state so every replica computes the same uid.
using Uid = std::uint64_t;

/// Group-local logical timestamp.
using Timestamp = std::uint64_t;

/// The unit the application hands to a-mcast: destination groups plus an
/// opaque payload. `fifo_seq` carries one per-(sender, group) sequence
/// number per destination so each group can process a sender's messages in
/// submission order.
struct McastData final : sim::Typed<sim::Kind::kMcastData> {
  McastData(Uid u, std::uint64_t sender_key, ProcessId orig,
            std::vector<GroupId> gs,
            std::vector<std::pair<GroupId, std::uint64_t>> seqs,
            sim::MessagePtr p)
      : uid(u),
        sender(sender_key),
        origin(orig),
        groups(std::move(gs)),
        fifo_seq(std::move(seqs)),
        payload(std::move(p)) {}
  std::size_t size_bytes() const override {
    return 64 + groups.size() * 8 + payload->size_bytes();
  }

  [[nodiscard]] std::uint64_t seq_for(GroupId g) const {
    for (const auto& [group, seq] : fifo_seq)
      if (group == g) return seq;
    return 0;
  }

  Uid uid;
  /// Logical sender key for per-(sender, group) FIFO ordering. Client nodes
  /// use their process id; replicated group senders use a key derived from
  /// their group id so every replica computes the same channel.
  std::uint64_t sender;
  ProcessId origin;
  std::vector<GroupId> groups;  // sorted, unique
  std::vector<std::pair<GroupId, std::uint64_t>> fifo_seq;
  sim::MessagePtr payload;
};

using McastDataPtr = sim::Ref<const McastData>;

/// Sender -> replicas of each destination group.
struct McastSend final : sim::Typed<sim::Kind::kMcastSend> {
  explicit McastSend(McastDataPtr d) : data(std::move(d)) {}
  std::size_t size_bytes() const override { return data->size_bytes(); }
  McastDataPtr data;
};

/// Receiver replica -> transmitting process: "group `group` has received
/// multicast `uid`". Positive acknowledgement driving sender-side
/// retransmission — without it, a McastSend lost on every link to a
/// destination group would leave that group's FIFO channel waiting forever.
struct McastAck final : sim::Typed<sim::Kind::kMcastAck> {
  McastAck(Uid u, GroupId g) : uid(u), group(g) {}
  Uid uid;
  GroupId group;
};

/// Leader of one destination group -> replicas of the other destination
/// groups: "my group ordered `uid` at local timestamp `ts`". `reply` marks
/// an answer to another group's (re-)broadcast from a group that already
/// ordered the message; replies must never trigger counter-replies, or two
/// groups that both delivered would answer each other forever.
struct TsProposal final : sim::Typed<sim::Kind::kTsProposal> {
  TsProposal(Uid u, GroupId g, Timestamp t, bool r = false)
      : uid(u), from_group(g), ts(t), reply(r) {}
  Uid uid;
  GroupId from_group;
  Timestamp ts;
  bool reply;
};

/// Log entry: the group ordered this multicast (assigns the local timestamp
/// deterministically at processing time). `shed` bakes an admission-control
/// decision into the log: the message still advances the sender's FIFO
/// channel and the group clock at every replica, but delivery routes to the
/// shed handler instead of the application — so shedding is replicated
/// state, never a replica-local divergence.
struct StartEntry final : sim::Typed<sim::Kind::kStartEntry> {
  explicit StartEntry(McastDataPtr d, bool s = false)
      : data(std::move(d)), shed(s) {}
  std::size_t size_bytes() const override { return data->size_bytes(); }
  McastDataPtr data;
  bool shed;
};

/// Log entry: the final (max) timestamp for `uid` is known; bump the group
/// clock and make the message deliverable.
struct FinalEntry final : sim::Typed<sim::Kind::kFinalEntry> {
  FinalEntry(Uid u, Timestamp t) : uid(u), ts(t) {}
  Uid uid;
  Timestamp ts;
};

}  // namespace dynastar::multicast
