#include "sim/reliable.h"

#include <algorithm>

namespace dynastar::sim {

std::uint64_t ReliableLink::new_token() {
  // Tokens must never collide across incarnations of the same process: a
  // pre-crash message still in flight could otherwise ack a fresh entry
  // that happens to reuse its token. The epoch (bumped on restore) salts
  // the counter out of the old incarnation's token space.
  return (epoch_ << 48) ^ (env_.self().value() << 20) ^ ++next_token_;
}

bool ReliableLink::live(const Entry& e) {
  return !e.acked && e.tries < kMaxTries;
}

void ReliableLink::enqueue(ProcessId to, MessagePtr msg, bool control) {
  const std::uint64_t token = new_token();
  MessagePtr wrapped = make_message<ReliableMsg>(token, std::move(msg));
  env_.send_message(to, wrapped);
  Entry e;
  e.to = to;
  e.wrapped = std::move(wrapped);
  e.last_tx = env_.now();
  e.tries = 1;
  e.control = control;
  pending_.emplace(token, std::move(e));
  ++live_;
  outstanding_.push_back(token);
  maybe_arm();
}

void ReliableLink::send(ProcessId to, MessagePtr msg) {
  enqueue(to, std::move(msg), /*control=*/false);
}

bool ReliableLink::handle(ProcessId from, const MessagePtr& msg,
                          MessagePtr* inner) {
  if (inner != nullptr) *inner = nullptr;
  switch (msg->kind()) {
    case Kind::kReliableAck: {
      auto it = pending_.find(as<ReliableAck>(msg.get())->token);
      if (it != pending_.end()) {
        Entry& e = it->second;
        if (live(e)) --live_;
        if (e.control) {
          pending_.erase(it);
        } else if (!e.acked) {
          e.acked = true;
          e.acked_at = env_.now();
          acked_[e.to.value()].records.emplace_back(e.acked_at, it->first);
        }
      }
      return true;
    }
    case Kind::kReliableMsg: {
      const auto& wrapped = *as<ReliableMsg>(msg.get());
      env_.send_message(from, make_message<ReliableAck>(wrapped.token));
      if (as<ResendReq>(wrapped.inner.get()) != nullptr) {
        redrive(from);
        return true;
      }
      if (inner != nullptr) *inner = wrapped.inner;
      return true;
    }
    case Kind::kStableNotice: {
      // An ack that arrived strictly before the peer's checkpoint capture
      // implies the delivery happened before the capture, so the checkpoint
      // covers it and the entry can never be needed again. Only acked
      // entries go, so live_ is unchanged.
      const SimTime capture_time = as<StableNotice>(msg.get())->capture_time;
      auto log = acked_.find(from.value());
      if (log == acked_.end()) return true;
      auto& [records, head] = log->second;
      for (; head < records.size() && records[head].first < capture_time;
           ++head) {
        const auto [acked_at, token] = records[head];
        auto it = pending_.find(token);
        if (it != pending_.end() && it->second.acked &&
            it->second.acked_at == acked_at) {
          pending_.erase(it);
        }
      }
      if (2 * head >= records.size()) {
        records.erase(records.begin(), records.begin() + head);
        head = 0;
      }
      return true;
    }
    default:
      return false;
  }
}

void ReliableLink::redrive(ProcessId peer) {
  // The peer rolled back to its checkpoint; everything we retain for it may
  // have been lost. Re-send the lot (its restored dedup state suppresses
  // true duplicates) and restart the retry budget.
  std::vector<std::uint64_t> tokens;
  for (const auto& [token, e] : pending_)
    if (e.to == peer && !e.control) tokens.push_back(token);
  std::sort(tokens.begin(), tokens.end());
  const SimTime now = env_.now();
  for (std::uint64_t token : tokens) {
    Entry& e = pending_.at(token);
    e.acked = false;
    e.tries = 1;
    e.last_tx = now;
    env_.send_message(e.to, e.wrapped);
  }
  recount();
  maybe_arm();
}

void ReliableLink::recount() {
  live_ = 0;
  outstanding_.clear();
  for (const auto& [token, e] : pending_) {
    if (!live(e)) continue;
    ++live_;
    outstanding_.push_back(token);
  }
}

ReliableLink::State ReliableLink::capture() const {
  State s;
  s.pending.reserve(pending_.size());
  for (const auto& [token, e] : pending_)
    if (!e.control) s.pending.emplace_back(token, e);
  std::sort(s.pending.begin(), s.pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  s.next_token = next_token_;
  s.epoch = epoch_;
  return s;
}

void ReliableLink::restore(const State& s, const std::vector<ProcessId>& peers) {
  pending_.clear();
  pending_.reserve(s.pending.size());
  acked_.clear();  // every restored entry is unacked below
  next_token_ = s.next_token;
  epoch_ = s.epoch + 1;
  armed_ = false;
  // Anything acked after the checkpoint looks unacked again — that is the
  // point: the ack bookkeeping died with the heap, so re-send everything
  // (s.pending is in token order) and let acks re-accumulate. Tokens are
  // unchanged (same content), so a stale ack from a pre-crash copy still
  // lands correctly.
  const SimTime now = env_.now();
  for (const auto& [token, retained] : s.pending) {
    Entry& e = pending_.try_emplace(token, retained).first->second;
    e.acked = false;
    e.tries = 1;
    e.last_tx = now;
    env_.send_message(e.to, e.wrapped);
  }
  recount();
  for (ProcessId peer : peers) {
    if (peer == env_.self()) continue;
    enqueue(peer, make_message<ResendReq>(), /*control=*/true);
  }
  maybe_arm();
}

void ReliableLink::note_checkpoint(SimTime capture_time,
                                   const std::vector<ProcessId>& peers) {
  for (ProcessId peer : peers) {
    if (peer == env_.self()) continue;
    // Raw send: a lost notice only delays pruning until the next checkpoint.
    env_.send_message(peer, make_message<StableNotice>(capture_time));
  }
}

std::size_t ReliableLink::unacked() const {
  std::size_t n = 0;
  for (const auto& [token, e] : pending_)
    if (!e.acked) ++n;
  return n;
}

void ReliableLink::maybe_arm() {
  if (armed_ || live_ == 0) return;
  armed_ = true;
  env_.start_timer(kRetryInterval, [this] { on_timer(); });
}

void ReliableLink::on_timer() {
  armed_ = false;
  const SimTime now = env_.now();
  // Live entries in token order; the rest of outstanding_ is dropped here.
  std::sort(outstanding_.begin(), outstanding_.end());
  outstanding_.erase(std::unique(outstanding_.begin(), outstanding_.end()),
                     outstanding_.end());
  std::size_t kept = 0;
  for (std::uint64_t token : outstanding_) {
    auto it = pending_.find(token);
    if (it == pending_.end() || !live(it->second)) continue;
    Entry& e = it->second;
    if (now - e.last_tx >= kRetryInterval) {
      // Budget exhaustion keeps the entry (silent while the peer is
      // presumed dead); its ResendReq on recovery resets the budget.
      ++e.tries;
      e.last_tx = now;
      env_.send_message(e.to, e.wrapped);
      if (!live(e)) {
        --live_;
        continue;
      }
    }
    outstanding_[kept++] = token;
  }
  outstanding_.resize(kept);
  maybe_arm();
}

}  // namespace dynastar::sim
