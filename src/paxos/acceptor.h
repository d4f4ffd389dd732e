// Paxos acceptor: the voting role. Its durable state (highest promised
// ballot, per-slot votes) lives in AcceptorStorage, which the hosting node
// keeps across crashes — modeling stable storage.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>

#include "paxos/messages.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::paxos {

/// The acceptor's votes as a slot-indexed window: entry i holds slot
/// base + i, and an entry whose ballot is kNoBallot is a gap (no vote).
/// Slots are dense and arrive nearly in order, so an accept is an append or
/// an overwrite in place, and trimming pops from the front. The window's
/// first and last entries are always votes, so a stray slot far from the
/// rest costs at most the gap between them until the next trim.
class VoteWindow {
 public:
  [[nodiscard]] bool contains(Slot slot) const {
    return slot >= base_ && slot - base_ < entries_.size() &&
           entries_[slot - base_].ballot != kNoBallot;
  }
  /// The vote at `slot`; throws std::out_of_range when there is none.
  [[nodiscard]] const AcceptedEntry& at(Slot slot) const;
  /// Number of votes (gaps excluded).
  [[nodiscard]] std::size_t size() const { return votes_; }

  /// Records (or overwrites) the vote at entry.slot.
  void record(AcceptedEntry entry);
  /// Drops every vote below `slot`.
  void trim_below(Slot slot);

  /// Calls fn(entry) for every vote at a slot >= `from`, in slot order.
  template <typename Fn>
  void for_each_from(Slot from, Fn&& fn) const {
    for (std::size_t i = from > base_ ? from - base_ : 0; i < entries_.size();
         ++i)
      if (entries_[i].ballot != kNoBallot) fn(entries_[i]);
  }

 private:
  Slot base_ = 0;
  std::deque<AcceptedEntry> entries_;
  std::size_t votes_ = 0;
};

/// Durable acceptor state; survives process crashes.
struct AcceptorStorage {
  Ballot promised = kNoBallot;  // kNoBallot == never promised
  VoteWindow votes;
};

class AcceptorCore {
 public:
  AcceptorCore(sim::Env& env, GroupId group, AcceptorStorage& storage)
      : env_(env), group_(group), storage_(storage) {}

  /// Processes a Paxos message addressed to this acceptor. Returns true if
  /// the message was one the acceptor understands.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  [[nodiscard]] GroupId group() const { return group_; }

 private:
  void on_prepare(ProcessId from, const Prepare& msg);
  void on_accept(ProcessId from, const Accept& msg);

  sim::Env& env_;
  GroupId group_;
  AcceptorStorage& storage_;
};

}  // namespace dynastar::paxos
