#include "paxos/acceptor.h"

#include <stdexcept>

namespace dynastar::paxos {

const AcceptedEntry& VoteWindow::at(Slot slot) const {
  if (!contains(slot)) throw std::out_of_range("VoteWindow::at");
  return entries_[slot - base_];
}

void VoteWindow::record(AcceptedEntry entry) {
  const Slot slot = entry.slot;
  const AcceptedEntry gap{0, kNoBallot, nullptr};
  if (entries_.empty()) {
    base_ = slot;
    entries_.push_back(gap);
  } else if (slot < base_) {
    entries_.insert(entries_.begin(), base_ - slot, gap);
    base_ = slot;
  } else if (slot - base_ >= entries_.size()) {
    entries_.resize(slot - base_ + 1, gap);
  }
  AcceptedEntry& cell = entries_[slot - base_];
  if (cell.ballot == kNoBallot) ++votes_;
  cell = std::move(entry);
}

void VoteWindow::trim_below(Slot slot) {
  while (!entries_.empty() &&
         (base_ < slot || entries_.front().ballot == kNoBallot)) {
    if (entries_.front().ballot != kNoBallot) --votes_;
    entries_.pop_front();
    ++base_;
  }
}

bool AcceptorCore::handle(ProcessId from, const sim::MessagePtr& msg) {
  switch (msg->kind()) {
    case sim::Kind::kPrepare:
      return for_group<Prepare>(
          *msg, group_, [&](const Prepare& m) { on_prepare(from, m); });
    case sim::Kind::kAccept:
      return for_group<Accept>(
          *msg, group_, [&](const Accept& m) { on_accept(from, m); });
    default:
      return false;
  }
}

void AcceptorCore::on_prepare(ProcessId from, const Prepare& msg) {
  if (storage_.promised != kNoBallot && msg.ballot <= storage_.promised) {
    env_.send_message(from,
                      sim::make_message<Nack>(group_, msg.ballot, storage_.promised));
    return;
  }
  storage_.promised = msg.ballot;
  std::vector<AcceptedEntry> accepted;
  storage_.votes.for_each_from(msg.from_slot, [&](const AcceptedEntry& e) {
    accepted.push_back(e);
  });
  env_.send_message(
      from, sim::make_message<Promise>(group_, msg.ballot, std::move(accepted)));
}

void AcceptorCore::on_accept(ProcessId from, const Accept& msg) {
  if (storage_.promised != kNoBallot && msg.ballot < storage_.promised) {
    env_.send_message(from,
                      sim::make_message<Nack>(group_, msg.ballot, storage_.promised));
    return;
  }
  storage_.promised = msg.ballot;
  storage_.votes.record(AcceptedEntry{msg.slot, msg.ballot, msg.value});
  // Trim votes far below the leader's applied prefix. The window covers a
  // prospective new leader whose own applied prefix lags the old leader's:
  // its phase-1 recovery still finds every vote it can need. A replica
  // lagging more than the window would require snapshot transfer in a real
  // deployment; the simulation's heartbeat-driven catch-up keeps lag far
  // below this bound.
  constexpr Slot kVoteWindow = 4096;
  if (msg.committed > kVoteWindow)
    storage_.votes.trim_below(msg.committed - kVoteWindow);
  env_.send_message(from, sim::make_message<Accepted>(group_, msg.ballot, msg.slot));
}

}  // namespace dynastar::paxos
