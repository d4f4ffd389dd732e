#include "paxos/replica.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "common/metric_names.h"

namespace dynastar::paxos {

void DecisionLog::emplace(Slot slot, sim::MessagePtr value) {
  if (values_.empty()) {
    base_ = slot;
    values_.emplace_back();
  } else if (slot < base_) {
    values_.insert(values_.begin(), base_ - slot, nullptr);
    base_ = slot;
  } else if (slot - base_ >= values_.size()) {
    values_.resize(slot - base_ + 1);
  }
  sim::MessagePtr& cell = values_[slot - base_];
  if (cell) return;
  cell = std::move(value);
  ++decided_;
}

void DecisionLog::trim_below(Slot slot) {
  while (!values_.empty() && base_ < slot) {
    if (values_.front()) --decided_;
    values_.pop_front();
    ++base_;
  }
}

ReplicaCore::ReplicaCore(sim::Env& env, const Topology& topology, GroupId group,
                         Learner& learner, SnapshotOwner& owner,
                         ReplicaConfig config)
    : env_(env),
      topology_(topology),
      group_(group),
      config_(config),
      learner_(learner),
      owner_(owner) {
  const auto& replicas = topology_.group(group_).replicas;
  auto it = std::find(replicas.begin(), replicas.end(), env_.self());
  assert(it != replicas.end() && "replica core hosted on non-member node");
  my_index_ = static_cast<std::size_t>(it - replicas.begin());
  assert(topology_.group(group_).acceptors.size() <= 64 &&
         "InFlight::votes holds one bit per acceptor");
  assert(config_.transfer_chunk_bytes > 0 && "chunk size must be positive");
}

ProcessId ReplicaCore::leader_hint() const {
  const auto& replicas = topology_.group(group_).replicas;
  return replicas[ballot_ % replicas.size()];
}

Ballot ReplicaCore::next_owned_ballot(Ballot at_least) const {
  const std::size_t n = topology_.group(group_).replicas.size();
  Ballot b = at_least + (my_index_ + n - at_least % n) % n;
  if (b < at_least) b += n;  // overflow guard; unreachable in practice
  return b;
}

void ReplicaCore::start() {
  last_leader_contact_ = env_.now();
  if (my_index_ == 0) {
    start_phase1();
  } else {
    arm_election_timer();
  }
}

void ReplicaCore::submit(sim::MessagePtr value) {
  if (state_ == State::kLeading) {
    batch_.push_back(std::move(value));
    if (batch_.size() >= kMaxBatch) {
      flush_batch();
    } else if (!flush_scheduled_) {
      flush_scheduled_ = true;
      env_.start_timer(kBatchDelay, [this] {
        flush_scheduled_ = false;
        flush_batch();
      });
    }
    return;
  }
  // Forward to whoever owns the current ballot; if an election is running —
  // or the hint points at ourselves (possible right after recovering from a
  // crash while owning the ballot), which would loop the forward back here —
  // we stash and retry shortly.
  if (state_ == State::kFollower && leader_hint() != env_.self()) {
    env_.send_message(leader_hint(), sim::make_message<ProposeReq>(std::move(value)));
  } else {
    stashed_.push_back(std::move(value));
    arm_stash_retry();
  }
}

void ReplicaCore::arm_stash_retry() {
  if (stash_retry_armed_) return;
  stash_retry_armed_ = true;
  env_.start_timer(kPhase1Timeout, [this] {
    stash_retry_armed_ = false;
    // Drain into a local batch first: submit() may legitimately re-stash a
    // value (leadership still unresolved), and popping from the same deque
    // we push to would spin forever.
    std::deque<sim::MessagePtr> pending;
    pending.swap(stashed_);
    for (auto& v : pending) submit(std::move(v));
    if (!stashed_.empty()) arm_stash_retry();
  });
}

void ReplicaCore::restore(const ReplicaRestart& s) {
  state_ = State::kFollower;
  ballot_ = s.ballot;
  promises_.clear();
  recovered_.clear();
  in_flight_.clear();
  next_slot_ = 0;
  batch_.clear();
  flush_scheduled_ = false;
  log_.clear();
  next_deliver_slot_ = s.next_deliver_slot;
  next_seq_ = s.next_seq;
  floor_slot_ = s.next_deliver_slot;
  last_checkpoint_slot_ = s.last_checkpoint_slot;
  // The restored position's checkpoint history is not ours to serve; the
  // next boundary captures a new stable snapshot.
  stable_snapshot_ = nullptr;
  last_leader_contact_ = env_.now();
  catchup_pending_ = false;
  transfer_.reset();  // any in-flight chunk pull predates the restored state
  stashed_.clear();
  stash_retry_armed_ = false;
}

void ReplicaCore::start_recovered() {
  last_leader_contact_ = env_.now();
  arm_election_timer();
  // Pull the missing suffix without waiting for the next heartbeat. If the
  // gap starts below the peer's log floor, its on_catchup answers with a
  // snapshot instead of decisions.
  if (leader_hint() != env_.self()) {
    env_.send_message(leader_hint(),
                      sim::make_message<CatchupReq>(group_, next_deliver_slot_));
  }
}

bool ReplicaCore::handle(ProcessId from, const sim::MessagePtr& msg) {
  const sim::Message& m = *msg;
  switch (m.kind()) {
    case sim::Kind::kProposeReq:
      on_propose(*sim::as<ProposeReq>(&m));
      return true;
    case sim::Kind::kPromise:
      return for_group<Promise>(
          m, group_, [&](const Promise& p) { on_promise(from, p); });
    case sim::Kind::kNack:
      return for_group<Nack>(m, group_, [&](const Nack& p) { on_nack(p); });
    case sim::Kind::kAccepted:
      return for_group<Accepted>(
          m, group_, [&](const Accepted& p) { on_accepted(from, p); });
    case sim::Kind::kDecision:
      return for_group<Decision>(
          m, group_, [&](const Decision& p) { on_decision(p); });
    case sim::Kind::kHeartbeat:
      return for_group<Heartbeat>(
          m, group_, [&](const Heartbeat& p) { on_heartbeat(p); });
    case sim::Kind::kCatchupReq:
      return for_group<CatchupReq>(
          m, group_, [&](const CatchupReq& p) { on_catchup(from, p); });
    case sim::Kind::kInstallSnapshotReq:
      return for_group<InstallSnapshotReq>(
          m, group_,
          [&](const InstallSnapshotReq& p) { on_install_req(from, p); });
    case sim::Kind::kInstallSnapshotResp:
      return for_group<InstallSnapshotResp>(
          m, group_, [&](const InstallSnapshotResp& p) { on_install_resp(p); });
    case sim::Kind::kChunkManifest:
      return for_group<ChunkManifest>(
          m, group_,
          [&](const ChunkManifest& p) { on_chunk_manifest(from, p); });
    case sim::Kind::kStateChunkReq:
      return for_group<StateChunkReq>(
          m, group_, [&](const StateChunkReq& p) { on_chunk_req(from, p); });
    case sim::Kind::kStateChunk:
      return for_group<StateChunk>(
          m, group_, [&](const StateChunk& p) { on_chunk(from, p); });
    case sim::Kind::kStateChunkAck:
      // Wire-level close of the chunk loop; the sim-side sender is stateless,
      // so there is nothing to update.
      return for_group<StateChunkAck>(m, group_, [](const StateChunkAck&) {});
    default:
      return false;
  }
}

void ReplicaCore::on_propose(const ProposeReq& msg) { submit(msg.value); }

void ReplicaCore::start_phase1() {
  // A retry from within phase 1 must move to a strictly higher ballot; the
  // first attempt may reuse the current one (so replica 0 bootstraps at 0).
  const Ballot at_least = (state_ == State::kPhase1) ? ballot_ + 1 : ballot_;
  state_ = State::kPhase1;
  ballot_ = next_owned_ballot(at_least);
  promises_.clear();
  recovered_.clear();
  ++phase1_epoch_;
  const std::uint64_t epoch = phase1_epoch_;
  LOG_DEBUG << "g" << group_ << " r" << my_index_ << " phase1 ballot " << ballot_;
  for (ProcessId acceptor : topology_.group(group_).acceptors) {
    env_.send_message(acceptor,
                      sim::make_message<Prepare>(group_, ballot_, next_deliver_slot_));
  }
  env_.start_timer(kPhase1Timeout, [this, epoch] {
    if (state_ == State::kPhase1 && phase1_epoch_ == epoch) start_phase1();
  });
}

void ReplicaCore::on_promise(ProcessId from, const Promise& msg) {
  if (state_ != State::kPhase1 || msg.ballot != ballot_) return;
  if (!promises_.insert(from.value()).second) return;
  for (const auto& entry : msg.accepted) {
    auto it = recovered_.find(entry.slot);
    if (it == recovered_.end() || it->second.ballot < entry.ballot)
      recovered_[entry.slot] = entry;
  }
  if (promises_.size() >= topology_.group(group_).quorum()) become_leader();
}

void ReplicaCore::become_leader() {
  state_ = State::kLeading;
  next_slot_ = next_deliver_slot_;
  if (!recovered_.empty())
    next_slot_ = std::max(next_slot_, recovered_.rbegin()->first + 1);
  in_flight_.clear();
  // Re-propose recovered values at our ballot and plug holes with no-ops so
  // the log prefix becomes decidable.
  for (Slot s = next_deliver_slot_; s < next_slot_; ++s) {
    if (log_.contains(s)) continue;
    auto it = recovered_.find(s);
    sim::MessagePtr value = (it != recovered_.end())
                                ? it->second.value
                                : sim::make_message<Batch>(std::vector<sim::MessagePtr>{});
    propose_slot(s, std::move(value));
  }
  recovered_.clear();
  promises_.clear();
  LOG_DEBUG << "g" << group_ << " r" << my_index_ << " leading ballot " << ballot_;
  arm_heartbeat_timer();
  if (!batch_.empty()) flush_batch();
  while (!stashed_.empty()) {
    batch_.push_back(std::move(stashed_.front()));
    stashed_.pop_front();
  }
  if (!batch_.empty()) flush_batch();
  learner_.on_lead();
}

void ReplicaCore::step_down(Ballot higher) {
  // Adopt the higher ballot; its owner is the presumptive leader. Any values
  // we were trying to order are re-submitted so they are not lost (the upper
  // layer deduplicates).
  ballot_ = higher;
  state_ = State::kFollower;
  last_leader_contact_ = env_.now();
  std::vector<sim::MessagePtr> to_resubmit;
  for (auto& [slot, inflight] : in_flight_) to_resubmit.push_back(inflight.value);
  in_flight_.clear();
  for (auto& v : batch_) to_resubmit.push_back(std::move(v));
  batch_.clear();
  for (auto& v : to_resubmit) {
    if (const auto* batch = sim::as<Batch>(v.get())) {
      // Unwrap recovered batches back into individual values.
      for (const auto& inner : batch->values) submit(inner);
    } else {
      submit(std::move(v));
    }
  }
  arm_election_timer();
}

void ReplicaCore::on_nack(const Nack& msg) {
  if (msg.promised > ballot_) step_down(msg.promised);
}

void ReplicaCore::flush_batch() {
  if (state_ != State::kLeading || batch_.empty()) return;
  // An exact-size copy for the log; batch_ keeps its capacity.
  auto value = sim::make_message<Batch>(std::vector<sim::MessagePtr>(
      std::make_move_iterator(batch_.begin()),
      std::make_move_iterator(batch_.end())));
  batch_.clear();
  propose_slot(next_slot_++, std::move(value));
}

void ReplicaCore::propose_slot(Slot slot, sim::MessagePtr value) {
  auto [it, inserted] = in_flight_.try_emplace(slot, InFlight{value, 0, 0});
  (void)inserted;
  it->second.value = value;
  it->second.votes = 0;
  it->second.proposed_at = env_.now();
  for (ProcessId acceptor : topology_.group(group_).acceptors) {
    env_.send_message(acceptor, sim::make_message<Accept>(
                                    group_, ballot_, slot, next_deliver_slot_,
                                    value));
  }
}

void ReplicaCore::on_accepted(ProcessId from, const Accepted& msg) {
  if (state_ != State::kLeading || msg.ballot != ballot_) return;
  auto it = in_flight_.find(msg.slot);
  if (it == in_flight_.end()) return;
  const GroupDef& def = topology_.group(group_);
  const auto voter = std::find(def.acceptors.begin(), def.acceptors.end(), from);
  if (voter == def.acceptors.end()) return;
  it->second.votes |= std::uint64_t{1} << (voter - def.acceptors.begin());
  if (static_cast<std::size_t>(std::popcount(it->second.votes)) < def.quorum())
    return;
  sim::MessagePtr value = it->second.value;
  in_flight_.erase(it);
  for (ProcessId replica : topology_.group(group_).replicas) {
    if (replica == env_.self()) continue;
    env_.send_message(replica, sim::make_message<Decision>(group_, msg.slot, value));
  }
  record_decision(msg.slot, std::move(value));
}

void ReplicaCore::on_decision(const Decision& msg) {
  last_leader_contact_ = env_.now();
  record_decision(msg.slot, msg.value);
}

void ReplicaCore::record_decision(Slot slot, sim::MessagePtr value) {
  if (slot < next_deliver_slot_) return;  // duplicate of an applied slot
  log_.emplace(slot, std::move(value));
  try_deliver();
}

void ReplicaCore::try_deliver() {
  while (true) {
    const sim::MessagePtr value = log_.find(next_deliver_slot_);
    if (!value) break;
    if (const auto* batch = sim::as<Batch>(value.get())) {
      for (const auto& inner : batch->values) {
        env_.trace(TracePoint::kPaxosDecided, next_seq_, 0, group_.value());
        learner_.deliver(inner);
        ++next_seq_;
      }
    } else {
      env_.trace(TracePoint::kPaxosDecided, next_seq_, 0, group_.value());
      learner_.deliver(value);
      ++next_seq_;
    }
    ++next_deliver_slot_;
    // Deterministic checkpoint cadence: every upper-layer mutation from the
    // slots below next_deliver_slot_ has fully applied (delivery is
    // synchronous), so the captured state sits exactly at a slot boundary.
    if (config_.checkpoint_interval > 0 &&
        next_deliver_slot_ % config_.checkpoint_interval == 0) {
      take_checkpoint();
    }
  }
  // Trim the applied prefix. Everything below the last checkpoint is
  // recoverable from the snapshot, so only the window beyond it needs to be
  // retained for peer catch-up; a replica that lags below the floor pulls a
  // snapshot via InstallSnapshotReq.
  Slot cutoff = last_checkpoint_slot_;
  if (config_.catchup_window > 0 && next_deliver_slot_ > config_.catchup_window)
    cutoff = std::max(cutoff, next_deliver_slot_ - config_.catchup_window);
  if (cutoff > floor_slot_) {
    log_.trim_below(cutoff);
    floor_slot_ = cutoff;
  }
}

void ReplicaCore::take_checkpoint() {
  last_checkpoint_slot_ = next_deliver_slot_;
  stable_snapshot_ = owner_.on_checkpoint_boundary();
}

void ReplicaCore::arm_heartbeat_timer() {
  if (state_ != State::kLeading) return;
  for (ProcessId replica : topology_.group(group_).replicas) {
    if (replica == env_.self()) continue;
    env_.send_message(replica, sim::make_message<Heartbeat>(
                                   group_, ballot_, next_slot_, floor_slot_));
  }
  // Retransmit phase-2 messages for slots that have not gathered a quorum
  // within a heartbeat period (lost Accepts would otherwise stall the slot
  // and, with it, delivery of everything after).
  const SimTime now = env_.now();
  for (auto& [slot, inflight] : in_flight_) {
    if (now - inflight.proposed_at < kHeartbeatInterval) continue;
    inflight.proposed_at = now;
    for (ProcessId acceptor : topology_.group(group_).acceptors) {
      env_.send_message(acceptor,
                        sim::make_message<Accept>(group_, ballot_, slot,
                                                  next_deliver_slot_,
                                                  inflight.value));
    }
  }
  env_.start_timer(kHeartbeatInterval, [this] { arm_heartbeat_timer(); });
}

void ReplicaCore::on_heartbeat(const Heartbeat& msg) {
  if (msg.ballot < ballot_) return;
  if (msg.ballot > ballot_ && state_ != State::kFollower) {
    step_down(msg.ballot);
  } else {
    ballot_ = msg.ballot;
    if (state_ != State::kFollower) state_ = State::kFollower;
  }
  last_leader_contact_ = env_.now();
  maybe_request_catchup(msg.next_slot, msg.floor_slot);
}

void ReplicaCore::maybe_request_catchup(Slot leader_next, Slot leader_floor) {
  if (next_deliver_slot_ >= leader_next || catchup_pending_) return;
  catchup_pending_ = true;
  const bool below_floor = next_deliver_slot_ < leader_floor;
  env_.start_timer(kCatchupDelay, [this, below_floor] {
    catchup_pending_ = false;
    if (state_ == State::kLeading) return;
    if (below_floor) {
      // An active chunk transfer already owns recovery of this gap; its
      // retransmit timers redirect to other peers if the source dies.
      if (transfer_) return;
      env_.send_message(leader_hint(), sim::make_message<InstallSnapshotReq>(
                                           group_, next_deliver_slot_));
    } else {
      env_.send_message(
          leader_hint(), sim::make_message<CatchupReq>(group_, next_deliver_slot_));
    }
  });
}

void ReplicaCore::on_catchup(ProcessId from, const CatchupReq& msg) {
  if (msg.from_slot < floor_slot_) {
    // The requested prefix is gone; a snapshot covers it (chunked when a
    // stable checkpoint snapshot exists, monolithic otherwise).
    offer_snapshot(from, msg.from_slot);
    return;
  }
  log_.for_each_from(msg.from_slot, [&](Slot slot, const sim::MessagePtr& v) {
    env_.send_message(from, sim::make_message<Decision>(group_, slot, v));
  });
}

void ReplicaCore::on_install_req(ProcessId from, const InstallSnapshotReq& msg) {
  offer_snapshot(from, msg.have_slot);
}

void ReplicaCore::offer_snapshot(ProcessId to, Slot have_slot) {
  if (stable_snapshot_ && last_checkpoint_slot_ > have_slot) {
    env_.send_message(to, sim::make_message<ChunkManifest>(
                              group_, last_checkpoint_slot_, stable_chunks(),
                              static_cast<std::uint32_t>(
                                  config_.transfer_chunk_bytes)));
    return;
  }
  // No stable snapshot newer than the receiver's position: fall back to a
  // monolithic fresh capture at the tip. This also closes the gap when
  // catchup_window < checkpoint_interval leaves a freshly chunk-installed
  // replica still below the leader's log floor.
  if (next_deliver_slot_ <= have_slot) return;
  env_.send_message(to, sim::make_message<InstallSnapshotResp>(
                            group_, next_deliver_slot_, owner_.capture_fresh()));
}

void ReplicaCore::on_chunk_req(ProcessId from, const StateChunkReq& msg) {
  if (msg.next_slot != last_checkpoint_slot_) {
    // Our stable snapshot moved past the manifest being pulled: offer the
    // newer one so the receiver restarts instead of starving. When we are
    // the stale side, stay silent — the receiver's retransmit timer will
    // redirect the request to a peer that can serve it.
    if (last_checkpoint_slot_ > msg.next_slot)
      offer_snapshot(from, msg.next_slot);
    return;
  }
  // A restored replica has no stable snapshot until its next boundary.
  if (!stable_snapshot_) return;
  const std::uint32_t total = stable_chunks();
  if (msg.index >= total) return;
  const std::size_t chunk = config_.transfer_chunk_bytes;
  const auto payload = static_cast<std::uint32_t>(
      std::min(chunk, stable_snapshot_->size_bytes() -
                          static_cast<std::size_t>(msg.index) * chunk));
  env_.send_message(from,
                    sim::make_message<StateChunk>(group_, msg.next_slot,
                                                  msg.index, total, payload,
                                                  stable_snapshot_));
  env_.metrics().add_counter(metric::kTransferChunksSent);
}

std::uint32_t ReplicaCore::stable_chunks() const {
  const std::size_t chunk = config_.transfer_chunk_bytes;
  return static_cast<std::uint32_t>(std::max<std::size_t>(
      1, (stable_snapshot_->size_bytes() + chunk - 1) / chunk));
}

void ReplicaCore::on_chunk_manifest(ProcessId /*from*/,
                                    const ChunkManifest& msg) {
  if (state_ == State::kLeading) return;
  if (msg.next_slot <= next_deliver_slot_) return;  // stale offer
  if (transfer_) {
    // The same manifest from another peer adds nothing (any peer at that
    // checkpoint can already serve chunk requests); an older one is stale.
    if (msg.next_slot <= transfer_->next_slot) return;
    abandon_transfer();  // peers checkpointed past the old manifest: restart
  }
  transfer_.emplace();
  transfer_->next_slot = msg.next_slot;
  transfer_->total_chunks = std::max<std::uint32_t>(1, msg.total_chunks);
  transfer_->chunk_bytes = msg.chunk_bytes;
  transfer_->have.assign(transfer_->total_chunks, false);
  transfer_->epoch = ++transfer_epochs_;
  env_.trace(TracePoint::kStateTransferStart, msg.next_slot, 0,
             transfer_->total_chunks);
  pump_chunk_requests();
}

void ReplicaCore::pump_chunk_requests() {
  Transfer& t = *transfer_;
  while (t.outstanding.size() < kTransferWindow &&
         t.next_index < t.total_chunks) {
    const std::uint32_t index = t.next_index++;
    if (t.have[index]) continue;
    request_chunk(index, 0);
  }
}

void ReplicaCore::request_chunk(std::uint32_t index, std::uint32_t tries) {
  Transfer& t = *transfer_;
  const ProcessId peer = best_transfer_peer();
  t.outstanding[index] = OutstandingChunk{peer, env_.now(), tries};
  env_.send_message(peer, sim::make_message<StateChunkReq>(group_, t.next_slot,
                                                           index));
  SimTime delay = kTransferRetryBase;
  for (std::uint32_t i = 0; i < tries && delay < kTransferRetryCap;
       ++i)
    delay *= 2;
  delay = std::min(delay, kTransferRetryCap);
  const std::uint32_t epoch = t.epoch;
  env_.start_timer(delay, [this, epoch, index] {
    if (!transfer_ || transfer_->epoch != epoch) return;
    auto it = transfer_->outstanding.find(index);
    if (it == transfer_->outstanding.end()) return;  // chunk arrived in time
    // Overdue: deprioritize the silent peer hard (a probe that never
    // answered is most likely down) and re-request with backoff — possibly
    // from a different peer, which is what survives a sender crash.
    const ProcessId silent = it->second.peer;
    const std::uint32_t prior_tries = it->second.tries;
    auto bw = peer_bandwidth_.find(silent.value());
    if (bw == peer_bandwidth_.end())
      peer_bandwidth_[silent.value()] = 1.0;
    else
      bw->second *= 0.5;
    ++transfer_->retransmits;
    env_.metrics().add_counter(metric::kTransferChunksRetransmitted);
    request_chunk(index, prior_tries + 1);
  });
}

void ReplicaCore::on_chunk(ProcessId from, const StateChunk& msg) {
  env_.send_message(from, sim::make_message<StateChunkAck>(group_,
                                                           msg.next_slot,
                                                           msg.index));
  if (!transfer_ || msg.next_slot != transfer_->next_slot) return;
  Transfer& t = *transfer_;
  auto out = t.outstanding.find(msg.index);
  if (out != t.outstanding.end()) {
    if (out->second.peer == from) {
      const SimTime elapsed = env_.now() - out->second.sent_at;
      if (elapsed > 0)
        note_peer_bandwidth(from, static_cast<double>(msg.payload_bytes) *
                                      1e9 / static_cast<double>(elapsed));
    }
    t.outstanding.erase(out);
  }
  if (msg.index < t.have.size() && !t.have[msg.index]) {
    t.have[msg.index] = true;
    ++t.have_count;
    // Peers checkpointed at the same slot hold state covering the same
    // applied prefix; keep the first arriving ref as the splice payload and
    // let later chunks (possibly from other peers) count as wire progress.
    if (!t.state) t.state = msg.state;
  }
  if (t.have_count == t.total_chunks) {
    complete_transfer();
    return;
  }
  pump_chunk_requests();
}

void ReplicaCore::note_peer_bandwidth(ProcessId peer, double bytes_per_sec) {
  auto [it, inserted] = peer_bandwidth_.try_emplace(peer.value(),
                                                    bytes_per_sec);
  if (!inserted)
    it->second = kTransferEwmaAlpha * bytes_per_sec +
                 (1.0 - kTransferEwmaAlpha) * it->second;
}

ProcessId ReplicaCore::best_transfer_peer() const {
  ProcessId best = env_.self();
  double best_score = -1.0;
  for (ProcessId peer : topology_.group(group_).replicas) {
    if (peer == env_.self()) continue;
    auto it = peer_bandwidth_.find(peer.value());
    const double score = it == peer_bandwidth_.end()
                             ? std::numeric_limits<double>::infinity()
                             : it->second;
    if (score > best_score) {
      best = peer;
      best_score = score;
    }
  }
  return best;
}

void ReplicaCore::complete_transfer() {
  Transfer done = std::move(*transfer_);
  transfer_.reset();  // before the install: restore() must see no transfer
  env_.trace(TracePoint::kStateTransferEnd, done.next_slot, 0,
             done.retransmits);
  if (state_ == State::kLeading) return;
  if (done.next_slot <= next_deliver_slot_) return;  // outran the manifest
  if (!done.state || !owner_.install_snapshot(done.state)) return;
  take_checkpoint();
  try_deliver();
}

void ReplicaCore::abandon_transfer() { transfer_.reset(); }

void ReplicaCore::on_install_resp(const InstallSnapshotResp& msg) {
  // Stale or self-defeating installs are ignored: a leader never rolls its
  // own state back, and a snapshot at or below our position adds nothing.
  if (state_ == State::kLeading) return;
  if (msg.next_slot <= next_deliver_slot_) return;
  if (!owner_.install_snapshot(msg.state)) return;
  // The install restored every layer, including our position (restore()),
  // so next_deliver_slot_ == msg.next_slot here. Persist the installed state
  // as the new durable checkpoint, then resume normal delivery.
  take_checkpoint();
  try_deliver();
}

void ReplicaCore::arm_election_timer() {
  // Randomized patience avoids dueling candidates with two replicas.
  const SimTime jitter = static_cast<SimTime>(env_.random().uniform(
      0, static_cast<std::uint64_t>(kElectionTimeout)));
  env_.start_timer(kElectionTimeout + jitter, [this] {
    if (state_ != State::kFollower) return;
    if (env_.now() - last_leader_contact_ >= kElectionTimeout) {
      start_phase1();
    } else {
      arm_election_timer();
    }
  });
}

}  // namespace dynastar::paxos
