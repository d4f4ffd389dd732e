#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "common/logging.h"
#include "common/metric_names.h"

namespace dynastar::core {

namespace {
/// CPU charged for packing/unpacking one relocated object.
constexpr SimTime kPerObjectMoveCost = nanoseconds(500);

/// STAR: master replicas poll their deferred queue at this interval and emit
/// an epoch-switch marker when work is pending. Shorter = lower
/// multi-command latency, more marker/update traffic.
constexpr SimTime kStarEpochInterval = milliseconds(1);

/// Parallel executor micro-batch window: a delivered command waits at most
/// this long for companions before the executor flushes.
constexpr SimTime kExecBatchWindow = microseconds(200);
/// Flush as soon as this many commands are pending.
constexpr std::size_t kExecBatchMax = 64;

/// Deterministic uid for group-emitted multicasts, namespaced by purpose.
std::uint64_t group_uid(GroupId g, std::uint64_t purpose,
                        std::uint64_t counter) {
  std::uint64_t x = g.value() * 0x9e3779b97f4a7c15ULL + purpose;
  x ^= counter + 0xbf58476d1ce4e5b9ULL + (x << 6) + (x >> 2);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x | (1ULL << 63);  // avoid colliding with client uids
}

/// STAR: true when the command spans more than one owner (its addressing is
/// {master} only, and the master executes it at the next epoch switch).
/// dests.size() can't distinguish this — a master-owned single is also
/// addressed to exactly {master}.
bool star_multi_owner(const ExecCommand& ec) {
  for (PartitionId o : ec.owners)
    if (o != ec.owners.front()) return true;
  return false;
}

/// Indices i with keep(i) at which vertices[i] occurs for the first time
/// among the kept indices, in command order. One sorted copy plus a
/// done-mask: no per-vertex node, and omegas run to thousands of vertices.
template <typename Keep>
std::vector<std::size_t> first_occurrences(const std::vector<VertexId>& vertices,
                                           Keep keep) {
  std::vector<std::size_t> firsts;
  firsts.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i)
    if (keep(i)) firsts.push_back(i);
  if (firsts.size() < 2) return firsts;
  std::vector<VertexId> sorted;
  sorted.reserve(firsts.size());
  for (std::size_t i : firsts) sorted.push_back(vertices[i]);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() == firsts.size()) return firsts;  // no duplicates
  std::vector<bool> done(sorted.size(), false);
  std::size_t kept = 0;
  for (std::size_t i : firsts) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), vertices[i]) -
        sorted.begin());
    if (done[rank]) continue;
    done[rank] = true;
    firsts[kept++] = i;
  }
  firsts.resize(kept);
  return firsts;
}

bool any_index(std::size_t /*i*/) { return true; }

/// Inserts `value` into `v`, kept sorted by proj(element), unless an element
/// with the same key is already there; true if inserted.
template <typename T, typename Proj = std::identity>
bool insert_sorted(std::vector<T>& v, T value, Proj proj = {}) {
  const auto key = std::invoke(proj, value);
  const auto it = std::ranges::lower_bound(v, key, {}, proj);
  if (it != v.end() && std::invoke(proj, *it) == key) return false;
  v.insert(it, std::move(value));
  return true;
}

PartitionId source_of(const sim::Ref<const VarTransfer>& transfer) {
  return transfer->from;
}
}  // namespace

PartitionServerCore::PartitionServerCore(
    sim::Env& env, const paxos::Topology& topology, PartitionId partition,
    const SystemConfig& config, std::unique_ptr<AppStateMachine> app,
    SnapshotPtr& checkpoint)
    : env_(env),
      topology_(topology),
      partition_(partition),
      config_(config),
      app_(std::move(app)),
      primary_(topology.group(group_of(partition)).replicas.front() ==
               env.self()),
      checkpoint_(checkpoint),
      partition_label_(std::to_string(partition.value())),
      member_(env, topology, group_of(partition), *this, config.paxos),
      reliable_(env),
      star_sender_(env, topology) {
  const auto& replicas = topology.group(group_of(partition)).replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i)
    if (replicas[i] == env.self()) replica_label_ = std::to_string(i);
}

void PartitionServerCore::start() {
  member_.start();
  if (is_star_master()) arm_star_epoch_timer();
}

std::vector<ProcessId> PartitionServerCore::reliable_peers() const {
  // Every process that may hold (or need) retained direct coordination
  // messages for us: the replicas of every partition group but ourselves.
  // The oracle group exchanges no ReliableLink traffic.
  std::vector<ProcessId> peers;
  for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
    for (ProcessId replica :
         topology_.group(group_of(PartitionId{p})).replicas) {
      if (replica != env_.self()) peers.push_back(replica);
    }
  }
  return peers;
}

sim::MessagePtr PartitionServerCore::on_checkpoint_boundary() {
  // Boundaries are slot-count driven, so every replica flushes its pending
  // executor batch at the same log position — checkpoints stay identical
  // across replicas even though batch windows are timer-local.
  flush_exec_batch();
  // One capture is both the durable checkpoint and the replica's stable
  // snapshot for chunked transfers: the Snapshot is immutable once built,
  // so sharing the pointer costs nothing beyond the capture.
  checkpoint_ = capture_snapshot();
  // Tell peers which of their retained sends this durable checkpoint covers.
  reliable_.note_checkpoint(env_.now(), reliable_peers());
  env_.metrics().add_counter(metric::kServerCheckpoints);
  env_.trace(TracePoint::kCheckpoint, member_.replica().last_checkpoint_slot(),
             0, partition_.value());
  return sim::make_message<ServerSnapshotMsg>(checkpoint_);
}

sim::MessagePtr PartitionServerCore::capture_fresh() {
  // The pending executor batch is volatile, never snapshotted state: apply
  // it so the snapshot sits at a state the log reproduces.
  flush_exec_batch();
  return sim::make_message<ServerSnapshotMsg>(capture_snapshot());
}

bool PartitionServerCore::install_snapshot(const sim::MessagePtr& snapshot) {
  const auto* snap = sim::as<ServerSnapshotMsg>(snapshot.get());
  if (snap == nullptr || !snap->state) return false;
  restore_snapshot(*snap->state);
  env_.metrics().add_counter(metric::kServerSnapshotInstalls);
  env_.trace(TracePoint::kSnapshotInstall,
             snap->state->member.replica.next_deliver_slot, 0,
             partition_.value());
  return true;
}

PartitionServerCore::SnapshotPtr PartitionServerCore::capture_snapshot()
    const {
  auto snap = std::make_shared<Snapshot>();
  snap->member = member_.capture_state();
  snap->reliable = reliable_.capture();
  snap->state = *this;
  return snap;
}

void PartitionServerCore::restore_snapshot(const Snapshot& snapshot) {
  member_.restore_state(snapshot.member);
  reliable_.restore(snapshot.reliable, reliable_peers());
  ServerState::operator=(snapshot.state);
  // Leases are volatile: installed copies and holder records die with the
  // incarnation (a regression test pins that they are not in the snapshot).
  // Restored data-less grants then fail validation, fall back to kRetry,
  // and the retry is served fresh full grants.
  leases_.clear();
  lease_holders_.clear();
  // Replica-local marker throttle: a marker in flight at a crash died with
  // the old incarnation, and an installed peer state carries the peer's
  // epoch, not this replica's sends. The next timer tick may re-emit;
  // receivers dedupe by epoch.
  star_marker_inflight_ = star_epoch_;
  // Live snapshot install: a pending executor batch refers to log positions
  // the installed state already covers (the peer executed those slots), so
  // applying it now would double-execute. Drop it; the peer's replies stand.
  exec_pending_.clear();
  exec_pending_clients_.clear();
}

void PartitionServerCore::start_recovered() {
  env_.trace(TracePoint::kRecoveryRestore,
             member_.replica().next_deliver_slot(), 0, partition_.value());
  member_.start_recovered();
  if (is_star_master()) arm_star_epoch_timer();
}

void PartitionServerCore::preload_object(ObjectId id, VertexId vertex,
                                         ObjectPtr object) {
  store_.put(id, vertex, std::move(object));
}

void PartitionServerCore::preload_assignment(AssignmentPtr assignment,
                                             Epoch epoch) {
  map_ = *assignment;
  epoch_ = epoch;
}

bool PartitionServerCore::handle(ProcessId from, const sim::MessagePtr& msg) {
  if (member_.handle(from, msg)) return true;
  sim::MessagePtr inner;
  if (reliable_.handle(from, msg, &inner)) {
    if (inner) dispatch_direct(from, inner);
    return true;
  }
  // McastAcks the member does not own: acks for this replica's own
  // epoch-marker sends (STAR), or late duplicates. star_sender_ consumes
  // every McastAck.
  if (star_sender_.handle(msg)) return true;
  return dispatch_direct(from, msg);
}

void PartitionServerCore::resume() {
  if (!blocked_) return;
  blocked_ = false;
  pump();
}

bool PartitionServerCore::dispatch_direct(ProcessId /*from*/,
                                          const sim::MessagePtr& msg) {
  switch (msg->kind()) {
    case sim::Kind::kVarTransfer:
      on_var_transfer(sim::as<VarTransfer>(msg));
      return true;
    case sim::Kind::kVarReturn:
      on_var_return(sim::as<VarReturn>(msg));
      return true;
    case sim::Kind::kObjectHandoff:
      on_handoff(*sim::as<ObjectHandoff>(msg.get()));
      return true;
    case sim::Kind::kHandoffChunk:
      on_handoff_chunk(sim::as<HandoffChunk>(msg));
      return true;
    case sim::Kind::kFetchVertex:
      on_fetch(*sim::as<FetchVertex>(msg.get()));
      return true;
    case sim::Kind::kStarEpochUpdate:
      on_star_update(sim::as<StarEpochUpdate>(msg));
      return true;
    case sim::Kind::kAbortNotice:
      on_abort(*sim::as<AbortNotice>(msg.get()));
      return true;
    case sim::Kind::kLeaseGrant:
      on_lease_grant(sim::as<LeaseGrant>(msg));
      return true;
    case sim::Kind::kLeaseRevoke:
      on_lease_revoke(*sim::as<LeaseRevoke>(msg.get()));
      return true;
    default:
      return false;
  }
}

void PartitionServerCore::send_to_partition(PartitionId p,
                                            sim::MessagePtr msg) {
  for (ProcessId replica : topology_.group(group_of(p)).replicas)
    reliable_.send(replica, msg);
}

// ---------------------------------------------------------------------------
// Delivery and the execution queue
// ---------------------------------------------------------------------------

void PartitionServerCore::on_adeliver(const multicast::McastData& data) {
  switch (data.payload->kind()) {
    case sim::Kind::kExecCommand:
      trace_cmd(TracePoint::kServerDeliver,
                *sim::as<ExecCommand>(data.payload.get()), partition_.value());
      break;
    case sim::Kind::kPlanMsg:
    case sim::Kind::kStarEpochMsg:
      break;
    default:
      return;  // oracle-only payloads multicast to every group are ignored
  }
  queue_.push_back(data.payload);
  // Admission depth sampled at each delivery; mean depth per bucket is this
  // sum divided by that bucket's delivery count (see common/report.cpp).
  // Per-node labeled series are recorded by every replica (no double
  // counting: the labels make each node's series distinct).
  node_series(queue_depth_series_, metric::kServerQueueDepth)
      .add(env_.now(), static_cast<double>(admission_depth()));
  if (!blocked_) pump();
}

bool PartitionServerCore::admit(const multicast::McastData& data) {
  if (config_.server_queue_cap == 0) return true;
  const auto* exec = sim::as<ExecCommand>(data.payload.get());
  if (exec == nullptr) return true;
  const std::size_t depth = admission_depth();
  if (depth >= config_.server_queue_cap) return false;
  env_.trace(TracePoint::kAdmit, exec->cmd->cmd_id, exec->attempt, depth);
  return true;
}

std::size_t PartitionServerCore::admission_depth() const {
  return env_.inbox_depth() + queue_.size() + exec_pending_.size();
}

void PartitionServerCore::on_shed_deliver(const multicast::McastData& data) {
  auto exec = sim::as<ExecCommand>(data.payload);
  if (!exec) return;
  const std::size_t depth = admission_depth();
  trace_cmd(TracePoint::kShed, *exec, depth);
  // At-most-once first: a retransmission of an already-executed command is
  // answered from the reply cache even under shedding — never with Busy,
  // which would send the client into a retry loop for a finished command.
  if (serve_cached_duplicate(*exec)) return;
  const SimTime retry_after = busy_retry_after(depth);
  trace_cmd(TracePoint::kBusyReply, *exec,
            static_cast<std::uint64_t>(retry_after));
  env_.send_message(exec->cmd->client, sim::make_message<CommandReply>(
                                           exec->cmd->cmd_id, exec->attempt,
                                           ReplyStatus::kBusy, nullptr,
                                           retry_after));
  if (primary_) env_.metrics().add_counter(metric::kServerShed);
  env_.metrics()
      .series(metric::kServerShed,
              {{"partition", partition_label_}, {"replica", replica_label_}})
      .add(env_.now());
}

void PartitionServerCore::pump() {
  while (!queue_.empty()) {
    blocked_ = false;
    const sim::MessagePtr& item = queue_.front();
    if (auto plan = sim::as<PlanMsg>(item)) {
      queue_.pop_front();
      // Plans relocate vertices; pending accesses precede them in slot order.
      flush_exec_batch();
      apply_plan(*plan);
      continue;
    }
    if (auto marker = sim::as<StarEpochMsg>(item)) {
      if (marker->epoch <= star_epoch_) {
        // The other master replica's copy of an already-applied switch.
        queue_.pop_front();
        continue;
      }
      // The epoch batch (master) / update splice (non-master) mutates state
      // in slot order; pending singles precede the marker.
      flush_exec_batch();
      if (is_star_master()) {
        queue_.pop_front();
        star_execute_batch(marker->epoch);
        continue;
      }
      auto update = star_updates_.find(marker->epoch);
      if (update == star_updates_.end()) {
        // The marker's log position is the switch point, but the master's
        // state update travels the direct plane and may still be in flight.
        blocked_ = true;
        return;
      }
      sim::Ref<const StarEpochUpdate> state = update->second;
      star_updates_.erase(update);
      queue_.pop_front();
      apply_star_update(*state);
      star_epoch_ = marker->epoch;
      continue;
    }
    ExecCommandPtr ec = sim::as<ExecCommand>(item);
    // A retransmission whose original still waits in the pending batch
    // would pass the duplicate check below (no cached reply yet) and
    // execute twice: flush first so the original lands in the cache.
    if (!exec_pending_.empty() &&
        exec_pending_clients_.contains(ec->cmd->client.value()))
      flush_exec_batch();
    if (serve_cached_duplicate(*ec)) {
      queue_.pop_front();
      continue;
    }
    if (ec->cmd->type == CommandType::kCreate) {
      // A pending access must observe pre-create state (slot order).
      flush_exec_batch();
      execute_create(*ec);
      queue_.pop_front();
      continue;
    }
    if (ec->cmd->type == CommandType::kDelete) {
      // A pending access may read the vertex this delete removes.
      flush_exec_batch();
      execute_delete(*ec);
      queue_.pop_front();
      continue;
    }
    if (config_.mode == ExecutionMode::kStar && star_multi_owner(*ec)) {
      // Multi-partition command: only the master group is addressed; defer
      // it (in delivery order) to the next epoch switch, where it executes
      // against the full replica without borrow/return round-trips.
      star_deferred_.push_back(ec);
      queue_.pop_front();
      continue;
    }
    const CmdKey key{ec->cmd->cmd_id, ec->attempt};
    switch (classify(*ec)) {
      case Classification::kFuture:
        future_.push_back(ec);
        queue_.pop_front();
        continue;
      case Classification::kStale:
        // Consistent at every involved partition (commands and plans are
        // ordered by the atomic multicast), so no abort notices needed.
        reject(*ec, /*notify_peers=*/false);
        queue_.pop_front();
        continue;
      case Classification::kInvalid:
        if (config_.mode == ExecutionMode::kStar) {
          // Deterministic at owner and master (their verdicts are a function
          // of the same pairwise-ordered delivery sequence); only the owner
          // replies, and there are no transfers to abort.
          if (ec->target == partition_) reject(*ec, /*notify_peers=*/false);
        } else {
          reject(*ec, /*notify_peers=*/true);
        }
        queue_.pop_front();
        continue;
      case Classification::kBlocked:
        // Serial execution would have applied the pending commands before
        // waiting here; do the same so their replies aren't held hostage.
        flush_exec_batch();
        blocked_ = true;
        return;
      case Classification::kReady:
        break;
    }

    if (exec_batchable(*ec)) {
      // A single-partition access (every STAR command that gets here): the
      // lanes batch it, or it runs now.
      if (config_.exec_lanes > 1)
        exec_enqueue(ec);
      else
        execute_local({&ec, 1});
      queue_.pop_front();
      continue;
    }
    // Everything below observes or mutates state in slot order (borrows,
    // transfers, multi-partition execution): flush pending work first.
    flush_exec_batch();

    if (config_.mode == ExecutionMode::kSSMR) {
      if (!transfers_ready_for_ssmr(*ec)) {
        blocked_ = true;
        return;
      }
      execute_ssmr(*ec);
      queue_.pop_front();
      continue;
    }

    if (ec->target == partition_) {
      if (peer_aborted(key)) {
        // A peer rejected the command: return whatever arrived and tell the
        // client to retry.
        release(*ec);
        send_reply(*ec, ReplyStatus::kRetry, nullptr);
      } else if (lease_eligible(*ec)) {
        execute_leased_read(*ec);
      } else {
        execute_target(*ec);
      }
      queue_.pop_front();
      continue;
    }

    // Non-target lender on the lease fast path: grant at this slot and move
    // on — no objects leave the store and nothing blocks, which is the whole
    // latency win over borrow/return.
    if (lease_eligible(*ec)) {
      grant_lease(*ec);
      queue_.pop_front();
      continue;
    }

    // Non-target involved partition. Send our variables exactly once, then
    // (DynaStar) block until they come home (Algorithm 3 line 17).
    if (!sent_transfers_.contains(key)) execute_non_target(*ec);
    if (config_.mode == ExecutionMode::kDynaStar && lends_.contains(key)) {
      blocked_ = true;
      return;
    }
    sent_transfers_.erase(key);
    queue_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Intra-partition parallel execution (core/parallel_exec.h)
// ---------------------------------------------------------------------------

bool PartitionServerCore::exec_batchable(const ExecCommand& ec) const {
  // Only plain accesses whose whole execution is local: no transfers to
  // consume, no variables to ship, no bookkeeping keyed by slot order.
  if (ec.cmd->type != CommandType::kAccess) return false;
  if (config_.mode == ExecutionMode::kStar) return !star_multi_owner(ec);
  if (config_.mode == ExecutionMode::kSSMR) return ec.dests.size() == 1;
  return ec.dests.size() == 1 && ec.target == partition_;
}

void PartitionServerCore::exec_enqueue(const ExecCommandPtr& ec) {
  exec_pending_.push_back(ec);
  exec_pending_clients_.insert(ec->cmd->client.value());
  if (exec_pending_.size() >= kExecBatchMax) {
    flush_exec_batch();
    return;
  }
  if (!exec_flush_armed_) {
    exec_flush_armed_ = true;
    env_.start_timer(kExecBatchWindow, [this] {
      exec_flush_armed_ = false;
      flush_exec_batch();
    });
  }
}

ExecResult PartitionServerCore::execute(const ExecCommand& ec) {
  trace_cmd(TracePoint::kExecuteStart, ec, partition_.value());
  return app_->execute(*ec.cmd, store_);
}

template <typename Done>
void PartitionServerCore::execute_batch(std::span<const ExecCommandPtr> batch,
                                        std::size_t min_batch, Done&& done) {
  if (config_.exec_lanes <= 1 || batch.size() < min_batch) {
    for (const ExecCommandPtr& ec : batch) {
      ExecResult result = execute(*ec);
      env_.consume_cpu(result.cpu_cost);
      done(*ec, result);
    }
    return;
  }
  std::vector<ExecResult> results(batch.size());
  std::vector<ExecIntent> intents;
  intents.reserve(batch.size());
  std::vector<SimTime> costs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    intents.push_back(intent_for(*batch[i]->cmd));
    results[i] = execute(*batch[i]);
    costs[i] = results[i].cpu_cost;
  }
  const BatchStats stats = account_batch(intents, costs, config_.exec_lanes);
  // The batch charges its schedule makespan, not the serial sum — this is
  // where simulated lanes model the speedup (deterministically: the
  // schedule and costs are pure functions of the decided commands).
  env_.consume_cpu(stats.makespan);
  if (primary_) {
    MetricsRegistry& metrics = env_.metrics();
    metrics.add_counter(metric::kExecBatches);
    metrics.add_counter(metric::kExecBatchedCommands,
                        static_cast<double>(stats.commands));
    metrics.add_counter(metric::kExecConflictEdges,
                        static_cast<double>(stats.conflict_edges));
    metrics.series(metric::kExecLaneOccupancy)
        .add(env_.now(), stats.lane_occupancy);
  }
  env_.trace(TracePoint::kExecParallel,
             static_cast<std::uint64_t>(stats.makespan), stats.waves,
             stats.commands);
  // Finish the commands in slot order.
  for (std::size_t i = 0; i < batch.size(); ++i) done(*batch[i], results[i]);
}

void PartitionServerCore::flush_exec_batch() {
  if (exec_pending_.empty()) return;
  std::vector<ExecCommandPtr> batch(exec_pending_.begin(), exec_pending_.end());
  exec_pending_.clear();
  exec_pending_clients_.clear();
  execute_local(batch);
}

void PartitionServerCore::execute_local(std::span<const ExecCommandPtr> batch) {
  execute_batch(batch, 1, [this](const ExecCommand& ec, ExecResult& result) {
    if (leases_on() && !is_read_only(*ec.cmd)) {
      for (std::size_t j : first_occurrences(ec.cmd->vertices, any_index))
        note_vertex_mutation(ec.cmd->vertices[j]);
    }
    reply_ok(ec, std::move(result.reply), /*multi_partition=*/false);
    if (config_.mode == ExecutionMode::kDynaStar) record_hints(*ec.cmd);
  });
}

void PartitionServerCore::trace_cmd(TracePoint point, const ExecCommand& ec,
                                    std::uint64_t detail) {
  env_.trace(point, ec.cmd->cmd_id, ec.attempt, detail);
}

void PartitionServerCore::send_reply(const ExecCommand& ec, ReplyStatus status,
                                     sim::MessagePtr payload) {
  trace_cmd(TracePoint::kReplySent, ec, static_cast<std::uint64_t>(status));
  env_.send_message(ec.cmd->client,
                    sim::make_message<CommandReply>(ec.cmd->cmd_id, ec.attempt,
                                                    status,
                                                    std::move(payload)));
}

void PartitionServerCore::reply_ok(const ExecCommand& ec,
                                   sim::MessagePtr payload,
                                   bool multi_partition) {
  remember_reply(ec, ReplyStatus::kOk, payload);
  if (applies_silently(ec)) return;
  send_reply(ec, ReplyStatus::kOk, std::move(payload));
  if (!primary_) return;
  const SimTime now = env_.now();
  run_series(executed_series_, metric::kExecuted).add(now, 1.0);
  node_series(node_executed_series_, metric::kServerExecuted).add(now, 1.0);
  if (multi_partition) {
    run_series(mpart_series_, metric::kMultiPartition).add(now, 1.0);
    node_series(node_mpart_series_, metric::kServerMultiPartition)
        .add(now, 1.0);
  }
}

void PartitionServerCore::remember_reply(const ExecCommand& ec,
                                         ReplyStatus status,
                                         const sim::MessagePtr& payload) {
  auto& entry = reply_cache_[ec.cmd->client.value()];
  if (entry.cmd_id > ec.cmd->cmd_id) return;  // never regress
  entry = CachedReply{ec.cmd->cmd_id, status, payload};
}

bool PartitionServerCore::serve_cached_duplicate(const ExecCommand& ec) {
  // At-most-once: a retransmitted command whose earlier attempt already
  // executed here must not execute again. cmd_ids are monotone per client,
  // so cached >= delivered means the delivered command (or a successor)
  // already produced its authoritative reply.
  auto it = reply_cache_.find(ec.cmd->client.value());
  if (it == reply_cache_.end() || it->second.cmd_id < ec.cmd->cmd_id)
    return false;
  if (it->second.cmd_id == ec.cmd->cmd_id) {
    send_reply(ec, it->second.status, it->second.payload);
    if (primary_)
      env_.metrics().add_counter(metric::kServerReplyCacheHits);
  }
  // cached > delivered: the client already moved past this command (it can
  // only have timed out), so executing it now would violate session order —
  // suppress it silently. Either way, clean up this attempt's coordination
  // state like reject() does: a target bounces the variables peers shipped
  // for the duplicate attempt and drops the grants lenders re-granted (they
  // have no reply cache entry for it). STAR ships no transfers, and its
  // two-dest singles have the silently-applying master as their peer, not
  // a variable source.
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  if (config_.mode == ExecutionMode::kSSMR) {
    transfers_.erase(key);
    sent_transfers_.erase(key);
  } else if (config_.mode != ExecutionMode::kStar && ec.dests.size() > 1 &&
             ec.target == partition_) {
    release(ec);
  }
  return true;
}

PartitionServerCore::Classification PartitionServerCore::classify(
    const ExecCommand& ec) {
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};

  if (ec.epoch > epoch_) return Classification::kFuture;

  if (config_.mode == ExecutionMode::kDynaStar &&
      config_.strict_epoch_validation) {
    if (ec.epoch < epoch_) return Classification::kStale;
  } else if (config_.mode != ExecutionMode::kSSMR) {
    // Claims validation (DS-SMR, or DynaStar in relaxed mode): the sender's
    // believed owners must agree with this partition's map for every vertex
    // it claims here and every vertex we actually own.
    for (std::size_t i = 0; i < ec.cmd->vertices.size(); ++i) {
      const VertexId v = ec.cmd->vertices[i];
      auto it = map_.find(v);
      const bool claimed_mine = ec.owners[i] == partition_;
      const bool actually_mine = it != map_.end() && it->second == partition_;
      if (claimed_mine != actually_mine) return Classification::kInvalid;
    }
  }

  // A peer may have rejected this command; the target resolves that in
  // execute_target / execute_non_target. For blocking decisions an abort
  // counts as "ready to proceed to cleanup".
  const auto tstate = transfers_.find(key);
  const bool aborted =
      tstate != transfers_.end() && !tstate->second.aborted.empty();

  if (!objects_available(ec))
    return Classification::kBlocked;

  if (config_.mode == ExecutionMode::kStar) {
    // Star singles never wait for transfers: the owner and the master each
    // execute on the state they hold. (Without this the two-dest addressing
    // below would wait for a VarTransfer nobody ships.)
    return Classification::kReady;
  }

  const bool multi = ec.dests.size() > 1;
  if (multi && ec.target == partition_ &&
      config_.mode != ExecutionMode::kSSMR && !aborted) {
    if (lease_eligible(ec)) {
      // Lease fast path: wait for one grant per peer instead of transfers
      // (every peer computes lease_eligible identically from the same
      // ExecCommand and config, so no VarTransfer ever ships here).
      return lease_grants_complete(ec) ? Classification::kReady
                                       : Classification::kBlocked;
    }
    // Target: wait for every other involved partition's transfer.
    std::size_t received =
        tstate == transfers_.end() ? 0 : tstate->second.received.size();
    if (received + 1 < ec.dests.size()) {
      // The sends from peers happen when they reach this command; we may
      // also need to send nothing (we are target) — just wait.
      return Classification::kBlocked;
    }
  }
  return Classification::kReady;
}

bool PartitionServerCore::transfers_ready_for_ssmr(const ExecCommand& ec) {
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  // S-SMR: every involved partition ships copies to every other one, then
  // each executes the whole command locally. Send once, then wait.
  if (!sent_transfers_.contains(key)) {
    sent_transfers_.try_emplace(key);
    std::vector<ObjectEnvelope> mine;
    for (std::size_t i = 0; i < ec.cmd->objects.size(); ++i) {
      if (ec.owners[i] != partition_) continue;
      const ObjectId id = ec.cmd->objects[i];
      mine.push_back(ObjectEnvelope{id, ec.cmd->vertices[i], store_.share(id)});
    }
    env_.consume_cpu(kPerObjectMoveCost *
                     static_cast<SimTime>(mine.size() + 1));
    auto msg = sim::make_message<VarTransfer>(ec.cmd->cmd_id, ec.attempt,
                                              partition_, std::move(mine));
    for (PartitionId dest : ec.dests) {
      if (dest == partition_) continue;
      trace_cmd(TracePoint::kTransferSent, ec, dest.value());
      send_to_partition(dest, msg);
    }
    note_objects_exchanged(static_cast<double>(
        std::count(ec.owners.begin(), ec.owners.end(), partition_)));
  }
  const auto tstate = transfers_.find(key);
  const std::size_t received =
      tstate == transfers_.end() ? 0 : tstate->second.received.size();
  return received + 1 >= ec.dests.size();
}

bool PartitionServerCore::peer_aborted(const CmdKey& key) const {
  const auto tstate = transfers_.find(key);
  return tstate != transfers_.end() && !tstate->second.aborted.empty();
}

bool PartitionServerCore::objects_available(const ExecCommand& ec) {
  bool available = true;
  for (std::size_t i = 0; i < ec.cmd->objects.size(); ++i) {
    if (ec.owners[i] != partition_) continue;
    const VertexId v = ec.cmd->vertices[i];
    auto awaited = awaited_.find(v);
    if (awaited != awaited_.end()) {
      available = false;
      if (!config_.eager_plan_transfer && !fetch_requested_.contains(v)) {
        fetch_requested_.insert(v);
        send_to_partition(awaited->second, sim::make_message<FetchVertex>(
                                               epoch_, partition_, v));
      }
      continue;
    }
    if (lent_objects_.contains(ec.cmd->objects[i])) available = false;
  }
  return available;
}

// ---------------------------------------------------------------------------
// Execution paths
// ---------------------------------------------------------------------------

void PartitionServerCore::execute_target(const ExecCommand& ec) {
  // A multi-partition command whose transfers have all arrived: splice the
  // borrowed objects in and execute once.
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  auto& sources = resolved_[key];
  std::size_t borrowed_objects = 0;
  if (auto tstate = transfers_.find(key); tstate != transfers_.end()) {
    for (const auto& transfer : tstate->second.received) {
      insert_sorted(sources, transfer->from);
      insert_envelopes(transfer->objects);
      borrowed_objects += transfer->objects.size();
    }
  }
  env_.consume_cpu(kPerObjectMoveCost *
                   static_cast<SimTime>(borrowed_objects));

  ExecResult result = execute(ec);
  env_.consume_cpu(result.cpu_cost);

  // A write against our own vertices invalidates any leased copies of them.
  if (leases_on() && !is_read_only(*ec.cmd)) {
    const auto owned = [&](std::size_t i) { return ec.owners[i] == partition_; };
    for (std::size_t i : first_occurrences(ec.cmd->vertices, owned))
      note_vertex_mutation(ec.cmd->vertices[i]);
  }
  reply_ok(ec, std::move(result.reply), /*multi_partition=*/true);

  if (config_.mode == ExecutionMode::kDynaStar) {
    // Return every borrowed vertex (with any objects the execution created
    // under it) to its owner: one VarReturn per owner, in owner order, each
    // listing its vertices in command order.
    const auto borrowed = [&](std::size_t i) {
      return ec.owners[i] != partition_;
    };
    std::vector<std::size_t> firsts =
        first_occurrences(ec.cmd->vertices, borrowed);
    std::sort(firsts.begin(), firsts.end(), [&](std::size_t a, std::size_t b) {
      return ec.owners[a] != ec.owners[b] ? ec.owners[a] < ec.owners[b]
                                          : a < b;
    });
    std::size_t returned = 0;
    for (auto run = firsts.begin(); run != firsts.end();) {
      const PartitionId owner = ec.owners[*run];
      const auto run_end =
          std::find_if(run, firsts.end(),
                       [&](std::size_t i) { return ec.owners[i] != owner; });
      std::vector<ObjectEnvelope> envelopes;
      envelopes.reserve(static_cast<std::size_t>(run_end - run));
      for (; run != run_end; ++run)
        extract_vertex(ec.cmd->vertices[*run], envelopes);
      returned += envelopes.size();
      trace_cmd(TracePoint::kReturnSent, ec, owner.value());
      send_to_partition(owner, sim::make_message<VarReturn>(
                                   ec.cmd->cmd_id, ec.attempt, partition_,
                                   std::move(envelopes)));
    }
    note_objects_exchanged(static_cast<double>(returned));
    record_hints(*ec.cmd);
  } else {
    // DS-SMR permanent relocation: keep the objects, take ownership of the
    // vertices, and tell the oracle.
    std::vector<std::pair<VertexId, PartitionId>> moves;
    for (std::size_t i : first_occurrences(ec.cmd->vertices, any_index)) {
      const VertexId v = ec.cmd->vertices[i];
      map_[v] = partition_;
      if (ec.owners[i] != partition_) moves.emplace_back(v, partition_);
    }
    if (!moves.empty()) {
      member_.amcast_as_group(
          group_uid(group_of(partition_), /*purpose=*/2,
                    ++location_updates_emitted_),
          {kOracleGroup}, sim::make_message<LocationUpdate>(std::move(moves)));
    }
  }
  transfers_.erase(key);
}

void PartitionServerCore::execute_create(const ExecCommand& ec) {
  // Creates introduce a vertex no plan can reference yet, so they are
  // executable regardless of the epoch (Algorithm 2, Tasks 2/3).
  const ObjectId id = ec.cmd->objects.front();
  const VertexId vertex = ec.cmd->vertices.front();
  // STAR: creates are also addressed to the master, which applies them
  // silently (records the owner, not itself, and leaves replying to the
  // owner) so its full replica tracks every vertex.
  trace_cmd(TracePoint::kExecuteStart, ec, partition_.value());
  if (store_.contains(id)) {
    remember_reply(ec, ReplyStatus::kNok, nullptr);
    if (!applies_silently(ec)) send_reply(ec, ReplyStatus::kNok, nullptr);
    return;
  }
  store_.put(id, vertex, app_->make_object(*ec.cmd));
  note_vertex_mutation(vertex);
  map_[vertex] =
      config_.mode == ExecutionMode::kStar ? ec.target : partition_;
  reply_ok(ec, nullptr, /*multi_partition=*/false);
  if (config_.mode == ExecutionMode::kDynaStar)
    record_hints(*ec.cmd);
}

void PartitionServerCore::execute_delete(const ExecCommand& ec) {
  // delete(v): drop every object homed at the vertex and forget the
  // mapping. The oracle removed the vertex from its own map/graph when it
  // delivered its copy of this multicast (it is a destination).
  const VertexId vertex = ec.cmd->vertices.front();
  trace_cmd(TracePoint::kExecuteStart, ec, partition_.value());
  store_.erase_vertex(vertex);
  note_vertex_mutation(vertex);
  map_.erase(vertex);
  reply_ok(ec, nullptr, /*multi_partition=*/false);
}

void PartitionServerCore::execute_non_target(const ExecCommand& ec) {
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};

  // If a peer already rejected this command, skip it entirely.
  if (peer_aborted(key)) {
    transfers_.erase(key);
    return;
  }
  sent_transfers_.try_emplace(key);

  // Ship every omega object we own to the target (a move: the objects leave
  // this partition until returned — or forever under DS-SMR).
  const auto owned = static_cast<std::size_t>(
      std::count(ec.owners.begin(), ec.owners.end(), partition_));
  std::vector<ObjectEnvelope> mine;
  mine.reserve(owned);
  LendRecord lend{ec.target, {}};
  lend.vertices.reserve(owned);
  for (std::size_t i = 0; i < ec.cmd->objects.size(); ++i) {
    if (ec.owners[i] != partition_) continue;
    const ObjectId id = ec.cmd->objects[i];
    const VertexId v = ec.cmd->vertices[i];
    mine.push_back(ObjectEnvelope{id, v, store_.take(id)});
    lend.vertices.push_back(v);
  }
  std::sort(lend.vertices.begin(), lend.vertices.end());
  lend.vertices.erase(std::unique(lend.vertices.begin(), lend.vertices.end()),
                      lend.vertices.end());
  // The objects leave this store and the borrower may write them: any
  // outstanding leased copies are stale from this slot on.
  if (leases_on())
    for (VertexId v : lend.vertices) note_vertex_mutation(v);
  env_.consume_cpu(kPerObjectMoveCost * static_cast<SimTime>(mine.size() + 1));

  note_objects_exchanged(static_cast<double>(mine.size()));

  if (config_.mode == ExecutionMode::kDSSMR) {
    // Record the previous owners so an aborted move (a peer partition with
    // a stale claim rejected the command; the target bounces our objects
    // back) can be rolled back — otherwise the objects and the map entry
    // would be lost forever.
    MoveRecord record;
    for (std::size_t i : first_occurrences(ec.cmd->vertices, any_index)) {
      const VertexId v = ec.cmd->vertices[i];
      auto it = map_.find(v);
      record.previous_owner.emplace_back(
          v, it == map_.end() ? kNoPartition : it->second);
      map_[v] = ec.target;
    }
    // A permanent move: nothing comes back unless the move aborts.
    dssmr_moves_.emplace(key, std::move(record));
  } else {
    // DynaStar: record the lend before sending so a (same-event) return
    // cannot race past the bookkeeping.
    for (const auto& env : mine) lent_objects_.try_emplace(env.id);
    for (VertexId v : lend.vertices) lent_vertex_count_[v]++;
    lends_.emplace(key, std::move(lend));
  }
  trace_cmd(TracePoint::kTransferSent, ec, ec.target.value());
  send_to_partition(ec.target,
                    sim::make_message<VarTransfer>(ec.cmd->cmd_id, ec.attempt,
                                                   partition_, std::move(mine)));
  // A peer replica's transfer may already have driven the target; if its
  // return beat us here, consume it now so we don't block on it forever.
  if (auto early = early_returns_.find(key); early != early_returns_.end()) {
    auto held = early->second;
    early_returns_.erase(early);
    on_var_return(held);
  }
}

// ---------------------------------------------------------------------------
// Read leases (borrow-free read-only multi-partition commands)
// ---------------------------------------------------------------------------

bool PartitionServerCore::lease_eligible(const ExecCommand& ec) const {
  // Every involved partition evaluates this identically (same ExecCommand,
  // same SystemConfig), so lenders grant exactly when the target waits for
  // grants and the borrow machinery is bypassed symmetrically.
  return config_.read_leases && mode_supports_leases(config_.mode) &&
         ec.dests.size() > 1 && is_read_only(*ec.cmd);
}

void PartitionServerCore::grant_lease(const ExecCommand& ec) {
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  // A peer already rejected this command: the target will answer kRetry and
  // drop any grants, so don't create a holder record it will never install.
  if (peer_aborted(key)) {
    transfers_.erase(key);
    return;
  }
  std::vector<LeaseEntry> entries;
  std::size_t copied = 0;
  const auto owned = [&](std::size_t i) { return ec.owners[i] == partition_; };
  for (std::size_t i : first_occurrences(ec.cmd->vertices, owned)) {
    const VertexId v = ec.cmd->vertices[i];
    std::uint64_t version = 0;
    if (auto it = lease_versions_.find(v); it != lease_versions_.end())
      version = it->second;
    auto& holders = lease_holders_[v];
    if (holders.contains(ec.target)) {
      // The reader already holds a copy no mutation invalidated since it was
      // shipped: a data-less refresh pins it to this slot's version.
      entries.push_back(LeaseEntry{v, version, {}});
      continue;
    }
    LeaseEntry entry{v, version, {}};
    for (ObjectId id : store_.objects_of_vertex(v)) {
      entry.objects.push_back(ObjectEnvelope{id, v, store_.share(id)});
      ++copied;
    }
    holders.insert(ec.target);
    entries.push_back(std::move(entry));
  }
  env_.consume_cpu(kPerObjectMoveCost * static_cast<SimTime>(copied + 1));
  trace_cmd(TracePoint::kLeaseGrant, ec, ec.target.value());
  send_to_partition(ec.target, sim::make_message<LeaseGrant>(
                                   ec.cmd->cmd_id, ec.attempt, partition_,
                                   epoch_, std::move(entries)));
  if (primary_) {
    env_.metrics().add_counter(metric::kServerLeaseGrants);
    note_objects_exchanged(static_cast<double>(copied));
  }
}

bool PartitionServerCore::lease_grants_complete(const ExecCommand& ec) {
  const auto it = lease_grants_.find(CmdKey{ec.cmd->cmd_id, ec.attempt});
  const std::size_t received = it == lease_grants_.end() ? 0 : it->second.size();
  return received + 1 >= ec.dests.size();
}

void PartitionServerCore::execute_leased_read(const ExecCommand& ec) {
  // Validate every grant at execute time. A grant proves "at this command's
  // slot in the lender's delivery order, vertex v was at `version` under
  // `epoch`"; the read is correct iff the copy we hold matches that exactly.
  bool valid = true;
  std::uint64_t stale_vertices = 0;
  std::map<PartitionId, std::vector<VertexId>> stale;
  auto gstate = lease_grants_.find(CmdKey{ec.cmd->cmd_id, ec.attempt});
  if (gstate != lease_grants_.end()) {
    for (const auto& [from, grant] : gstate->second) {
      for (const LeaseEntry& entry : grant->entries) {
        const auto lease = leases_.find(entry.vertex);
        const bool ok = grant->epoch == epoch_ && lease != leases_.end() &&
                        lease->second.lender == from &&
                        lease->second.epoch == epoch_ &&
                        lease->second.version == entry.version;
        if (!ok) {
          valid = false;
          ++stale_vertices;
          stale[from].push_back(entry.vertex);
        }
      }
    }
  }

  if (!valid) {
    // Fall back to the retry path: drop the stale copies and revoke
    // upstream so each lender forgets this holder — the retried attempt is
    // then served fresh full grants and cannot loop on the same mismatch.
    for (auto& [lender, vertices] : stale) {
      for (VertexId v : vertices) {
        const auto lease = leases_.find(v);
        if (lease != leases_.end() && lease->second.lender == lender)
          leases_.erase(lease);
        env_.trace(TracePoint::kLeaseRevoke, v.value(), ec.attempt,
                   lender.value());
      }
      if (primary_)
        env_.metrics().add_counter(metric::kServerLeaseRevokes,
                                   static_cast<double>(vertices.size()));
      send_to_partition(lender, sim::make_message<LeaseRevoke>(
                                    partition_, std::move(vertices)));
    }
    release(ec);
    trace_cmd(TracePoint::kLeaseFallback, ec, stale_vertices);
    if (primary_) {
      MetricsRegistry& metrics = env_.metrics();
      metrics.add_counter(metric::kServerLeaseFallbacks);
      metrics.series(metric::kServerRetries).add(env_.now(), 1.0);
    }
    send_reply(ec, ReplyStatus::kRetry, nullptr);
    return;
  }

  // Splice the leased copies in, execute, splice them out again. The app
  // only reads (lease_eligible requires the read-only classification), so
  // removing exactly the spliced ids restores the store bit-for-bit.
  std::vector<ObjectId> spliced;
  const auto remote = [&](std::size_t i) { return ec.owners[i] != partition_; };
  for (std::size_t i : first_occurrences(ec.cmd->vertices, remote)) {
    const auto lease = leases_.find(ec.cmd->vertices[i]);
    if (lease == leases_.end()) continue;  // validated above; defensive
    for (const ObjectEnvelope& env : lease->second.objects) {
      if (!env.object) continue;
      store_.put(env.id, env.vertex, env.object);
      spliced.push_back(env.id);
    }
  }
  env_.consume_cpu(kPerObjectMoveCost * static_cast<SimTime>(spliced.size()));

  ExecResult result = execute(ec);
  env_.consume_cpu(result.cpu_cost);
  reply_ok(ec, std::move(result.reply), /*multi_partition=*/true);
  for (ObjectId id : spliced) store_.take(id);

  release(ec);  // late grants from a lender's other replica are dropped
  trace_cmd(TracePoint::kLeaseRead, ec, spliced.size());
  if (primary_)
    env_.metrics().add_counter(metric::kServerLeaseReads);
  if (config_.mode == ExecutionMode::kDynaStar)
    record_hints(*ec.cmd);
}

void PartitionServerCore::note_vertex_mutation(VertexId vertex) {
  if (!leases_on()) return;
  ++lease_versions_[vertex];
  auto holders = lease_holders_.find(vertex);
  if (holders == lease_holders_.end()) return;
  for (PartitionId holder : holders->second) {
    env_.trace(TracePoint::kLeaseRevoke, vertex.value(), 0, holder.value());
    send_to_partition(holder, sim::make_message<LeaseRevoke>(
                                  partition_, std::vector<VertexId>{vertex}));
    if (primary_)
      env_.metrics().add_counter(metric::kServerLeaseRevokes);
  }
  lease_holders_.erase(holders);
}

void PartitionServerCore::on_lease_grant(
    const sim::Ref<const LeaseGrant>& msg) {
  const CmdKey key{msg->cmd_id, msg->attempt};
  if (resolved_.contains(key)) return;  // late duplicate; already answered
  auto& grants = lease_grants_[key];
  if (!grants.emplace(msg->from, msg).second) return;  // other replica's copy
  // Install the winning grant's full entries. Recording and installing must
  // be one atomic step: after a partial-group recovery a lender's replicas
  // can disagree on holder records (one ships full data where the other
  // ships a data-less refresh), and validating one replica's recorded grant
  // against another replica's install could bounce the retry path forever.
  for (const LeaseEntry& entry : msg->entries) {
    if (entry.objects.empty()) continue;
    leases_[entry.vertex] =
        InstalledLease{msg->from, msg->epoch, entry.version, entry.objects};
  }
  resume();
}

void PartitionServerCore::on_lease_revoke(const LeaseRevoke& msg) {
  for (VertexId v : msg.vertices) {
    // Reader role: drop our installed copy if it came from the sender.
    const auto lease = leases_.find(v);
    if (lease != leases_.end() && lease->second.lender == msg.from)
      leases_.erase(lease);
    // Lender role: the sender no longer holds a copy of our vertex, so the
    // next grant to it must ship full data.
    const auto holders = lease_holders_.find(v);
    if (holders != lease_holders_.end()) {
      holders->second.erase(msg.from);
      if (holders->second.empty()) lease_holders_.erase(holders);
    }
  }
}

void PartitionServerCore::execute_ssmr(const ExecCommand& ec) {
  // Every involved partition's copies have arrived: execute the whole
  // command here, then drop the copies of remote vertices and keep only our
  // own updated state.
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  if (auto tstate = transfers_.find(key); tstate != transfers_.end()) {
    for (const auto& transfer : tstate->second.received)
      insert_envelopes(transfer->objects);
  }
  ExecResult result = execute(ec);
  env_.consume_cpu(result.cpu_cost);
  reply_ok(ec, std::move(result.reply), /*multi_partition=*/true);
  const auto remote = [&](std::size_t i) { return ec.owners[i] != partition_; };
  for (std::size_t i : first_occurrences(ec.cmd->vertices, remote))
    store_.erase_vertex(ec.cmd->vertices[i]);
  transfers_.erase(key);
  sent_transfers_.erase(key);
}

// ---------------------------------------------------------------------------
// STAR asymmetric execution
// ---------------------------------------------------------------------------

void PartitionServerCore::arm_star_epoch_timer() {
  env_.start_timer(kStarEpochInterval, [this] {
    maybe_emit_star_marker();
    arm_star_epoch_timer();
  });
}

void PartitionServerCore::maybe_emit_star_marker() {
  // Re-drive marker multicasts a destination group never acked, then emit
  // the next epoch's marker if deferred work is waiting and the previous
  // marker already applied. Emission is replica-local (each master replica
  // runs its own timer); receivers dedupe by epoch, first delivered wins —
  // exactly the PlanMsg discipline.
  star_sender_.retransmit_unacked();
  if (star_deferred_.empty()) return;
  if (star_marker_inflight_ > star_epoch_) return;
  star_marker_inflight_ = star_epoch_ + 1;
  std::vector<GroupId> groups;
  groups.reserve(config_.num_partitions);
  for (std::uint32_t p = 0; p < config_.num_partitions; ++p)
    groups.push_back(group_of(PartitionId{p}));
  star_sender_.amcast(std::move(groups),
                      sim::make_message<StarEpochMsg>(star_epoch_ + 1));
}

void PartitionServerCore::star_execute_batch(Epoch epoch) {
  star_epoch_ = epoch;
  auto deferred = std::move(star_deferred_);
  star_deferred_.clear();
  // Vertices owned by other partitions that this batch read or wrote; their
  // post-batch state ships to the owners below.
  std::map<PartitionId, std::set<VertexId>> touched;
  std::uint64_t executed = 0;
  // Runnable commands accumulate into chunks the conflict-graph executor
  // runs as one batch (serial when exec_lanes <= 1, preserving the original
  // behavior). A second command from the same client — a retransmitted
  // attempt — closes the chunk, so the duplicate check below always sees
  // the first attempt's cached reply.
  std::vector<ExecCommandPtr> chunk;
  std::unordered_set<std::uint64_t> chunk_clients;
  auto run_chunk = [&] {
    execute_batch(chunk, 2, [&](const ExecCommand& ec, ExecResult& result) {
      reply_ok(ec, std::move(result.reply), /*multi_partition=*/true);
      for (std::size_t i = 0; i < ec.cmd->vertices.size(); ++i) {
        if (ec.owners[i] == partition_ || ec.owners[i] == kNoPartition)
          continue;
        touched[ec.owners[i]].insert(ec.cmd->vertices[i]);
      }
      ++executed;
    });
    chunk.clear();
    chunk_clients.clear();
  };
  for (const ExecCommandPtr& ec : deferred) {
    if (chunk_clients.contains(ec->cmd->client.value())) run_chunk();
    if (serve_cached_duplicate(*ec)) continue;
    // Re-validate the sender's ownership claims against the master's map at
    // the switch position — a vertex deleted (or re-homed by a create race)
    // since the addressing was computed makes the command stale. Execution
    // never touches map_, so verdicts are chunk-order independent.
    bool valid = true;
    for (std::size_t i = 0; i < ec->cmd->vertices.size(); ++i) {
      auto it = map_.find(ec->cmd->vertices[i]);
      const PartitionId actual = it == map_.end() ? kNoPartition : it->second;
      if (actual != ec->owners[i]) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      reject(*ec, /*notify_peers=*/false);
      continue;
    }
    chunk.push_back(ec);
    chunk_clients.insert(ec->cmd->client.value());
  }
  run_chunk();

  // Ship every non-master partition its touched vertices' post-batch state.
  // Empty updates are sent too: non-masters block at the marker until their
  // update arrives, whatever it contains.
  std::size_t shipped = 0;
  for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
    const PartitionId dest{p};
    if (dest == partition_) continue;
    std::vector<std::pair<VertexId, std::vector<ObjectEnvelope>>> vertices;
    if (auto it = touched.find(dest); it != touched.end()) {
      vertices.reserve(it->second.size());
      for (VertexId v : it->second) {
        std::vector<ObjectEnvelope> envs;
        for (ObjectId id : store_.objects_of_vertex(v))
          envs.push_back(ObjectEnvelope{id, v, store_.share(id)});
        shipped += envs.size();
        vertices.emplace_back(v, std::move(envs));
      }
    }
    send_to_partition(dest, sim::make_message<StarEpochUpdate>(
                                epoch, partition_, std::move(vertices)));
  }
  env_.consume_cpu(kPerObjectMoveCost * static_cast<SimTime>(shipped + 1));
  if (primary_) {
    note_objects_exchanged(static_cast<double>(shipped));
    MetricsRegistry& metrics = env_.metrics();
    metrics.add_counter(metric::kStarEpochs);
    metrics.add_counter(metric::kStarDeferred, static_cast<double>(executed));
  }
  env_.trace(TracePoint::kStarEpoch, epoch, 0, deferred.size());
}

void PartitionServerCore::apply_star_update(const StarEpochUpdate& update) {
  std::size_t received = 0;
  for (const auto& [vertex, envelopes] : update.vertices) {
    // Replace the vertex's whole state with the master's post-batch state —
    // objects the batch deleted must disappear here too.
    store_.erase_vertex(vertex);
    insert_envelopes(envelopes);
    received += envelopes.size();
  }
  env_.consume_cpu(kPerObjectMoveCost * static_cast<SimTime>(received));
  env_.trace(TracePoint::kStarEpoch, update.epoch, 0, update.vertices.size());
}

void PartitionServerCore::on_star_update(
    const sim::Ref<const StarEpochUpdate>& msg) {
  if (msg->epoch <= star_epoch_) return;  // duplicate of an applied epoch
  star_updates_.emplace(msg->epoch, msg);  // first sender replica wins
  resume();
}

void PartitionServerCore::reject(const ExecCommand& ec, bool notify_peers) {
  send_reply(ec, ReplyStatus::kRetry, nullptr);
  if (primary_)
    env_.metrics().series(metric::kServerRetries).add(env_.now(), 1.0);
  if (notify_peers) {
    auto notice =
        sim::make_message<AbortNotice>(ec.cmd->cmd_id, ec.attempt, partition_);
    for (PartitionId dest : ec.dests) {
      if (dest != partition_) send_to_partition(dest, notice);
    }
  }
  // Return anything that already arrived for this command. Only a
  // DynaStar/DS-SMR target receives transfers; elsewhere a peer's abort
  // notice may have left a record.
  if (ec.target == partition_ && config_.mode != ExecutionMode::kStar)
    release(ec);
  else
    transfers_.erase(CmdKey{ec.cmd->cmd_id, ec.attempt});
}

void PartitionServerCore::release(const ExecCommand& ec) {
  const CmdKey key{ec.cmd->cmd_id, ec.attempt};
  lease_grants_.erase(key);
  auto& sources = resolved_[key];
  auto tstate = transfers_.find(key);
  if (tstate == transfers_.end()) return;
  for (const auto& transfer : tstate->second.received) {
    insert_sorted(sources, transfer->from);
    trace_cmd(TracePoint::kReturnSent, ec, transfer->from.value());
    send_to_partition(transfer->from,
                      sim::make_message<VarReturn>(ec.cmd->cmd_id, ec.attempt,
                                                   partition_,
                                                   transfer->objects));
  }
  transfers_.erase(tstate);
}

// ---------------------------------------------------------------------------
// Plan application (repartitioning)
// ---------------------------------------------------------------------------

void PartitionServerCore::apply_plan(const PlanMsg& plan) {
  if (plan.epoch <= epoch_) return;  // duplicate from the other oracle replica

  std::size_t moved_out = 0, moved_in = 0;
  for (const VertexMove& move : *plan.moves) {
    if (move.from == move.to) continue;
    if (move.from == partition_) {
      obligations_[move.vertex] = move.to;
      ++moved_out;
    } else if (move.to == partition_) {
      awaited_[move.vertex] = move.from;
      ++moved_in;
    }
  }
  // Switch the map and epoch before sending handoffs so forwarded vertices
  // carry the new view.
  for (const auto& [vertex, new_owner] : *plan.assignment)
    map_[vertex] = new_owner;
  epoch_ = plan.epoch;
  fetch_requested_.clear();
  // A plan epoch invalidates every lease wholesale: readers' installed
  // copies carry the old epoch (validation would reject them anyway), our
  // holder records are dropped so post-plan grants ship full data, and the
  // per-vertex versions may reset — validation is epoch AND version, and
  // the epoch just changed.
  leases_.clear();
  lease_versions_.clear();
  lease_holders_.clear();

  if (config_.eager_plan_transfer) {
    // Algorithm 3 Task 3: ship everything now (deferred when lent out).
    std::vector<VertexId> to_send;
    to_send.reserve(obligations_.size());
    for (const auto& [vertex, owner] : obligations_) to_send.push_back(vertex);
    for (VertexId v : to_send) send_handoff_if_possible(v);
  }

  env_.trace(TracePoint::kPlanApplied, plan.epoch, 0, partition_.value());
  if (primary_) {
    MetricsRegistry& metrics = env_.metrics();
    metrics.series(metric::kPlanApplied).add(env_.now(), 1.0);
    metrics.add_counter(metric::kVerticesMovedOut,
                        static_cast<double>(moved_out));
    metrics.add_counter(metric::kVerticesMovedIn,
                        static_cast<double>(moved_in));
  }

  // Process handoffs that raced ahead of the plan.
  auto buffered = std::move(handoff_buffer_);
  handoff_buffer_.clear();
  for (const auto& msg : buffered) on_handoff(*msg);

  // Re-enqueue the commands that were waiting for this epoch, ahead of
  // everything delivered after the plan.
  for (auto it = future_.rbegin(); it != future_.rend(); ++it)
    queue_.push_front(*it);
  future_.clear();
}

void PartitionServerCore::send_handoff_if_possible(VertexId vertex) {
  auto it = obligations_.find(vertex);
  if (it == obligations_.end()) return;
  auto lent = lent_vertex_count_.find(vertex);
  if (lent != lent_vertex_count_.end() && lent->second > 0) {
    fetch_wanted_.insert(vertex);  // send as soon as the lend returns
    return;
  }
  if (!config_.eager_plan_transfer && !fetch_wanted_.contains(vertex)) {
    // On-demand mode: only ship once the new owner asked.
    return;
  }
  note_vertex_mutation(vertex);  // the vertex is leaving this partition
  std::vector<ObjectEnvelope> envelopes;
  extract_vertex(vertex, envelopes);
  env_.consume_cpu(kPerObjectMoveCost *
                   static_cast<SimTime>(envelopes.size() + 1));
  if (primary_) {
    note_objects_exchanged(static_cast<double>(envelopes.size()));
    env_.metrics().series(metric::kPlanHandoffs)
        .add(env_.now(), static_cast<double>(envelopes.size()));
  }
  send_handoff(it->second,
               sim::make_message<ObjectHandoff>(epoch_, partition_, vertex,
                                                std::move(envelopes)));
  fetch_wanted_.erase(vertex);
  obligations_.erase(it);
}

void PartitionServerCore::send_handoff(PartitionId to,
                                       sim::Ref<const ObjectHandoff> handoff) {
  const std::size_t chunk = config_.paxos.transfer_chunk_bytes;
  const std::size_t total_bytes = handoff->size_bytes();
  if (total_bytes <= chunk) {
    send_to_partition(to, handoff);
    return;
  }
  const auto total_chunks =
      static_cast<std::uint32_t>((total_bytes + chunk - 1) / chunk);
  for (std::uint32_t i = 0; i < total_chunks; ++i) {
    const auto payload = static_cast<std::uint32_t>(
        std::min(chunk, total_bytes - static_cast<std::size_t>(i) * chunk));
    send_to_partition(to, sim::make_message<HandoffChunk>(
                              handoff->epoch, handoff->from, handoff->vertex,
                              i, total_chunks, payload, handoff));
    env_.metrics().add_counter(metric::kTransferChunksSent);
  }
}

void PartitionServerCore::on_handoff_chunk(
    const sim::Ref<const HandoffChunk>& msg) {
  // Chunks of an already-spliced (or already-superseded) handoff: the
  // dedup set on the full-handoff path covers completed assemblies too,
  // since completion inserts into it via on_handoff.
  if (handoffs_seen_.contains({msg->epoch, msg->vertex.value()})) return;
  auto& asmbl = handoff_assembly_[{msg->epoch, msg->vertex.value()}];
  asmbl.total_chunks = msg->total_chunks;
  if (!asmbl.handoff) asmbl.handoff = msg->handoff;
  if (!asmbl.have.insert(msg->index).second) return;  // duplicate frame
  if (asmbl.have.size() < asmbl.total_chunks) return;
  sim::MessagePtr full = std::move(asmbl.handoff);
  handoff_assembly_.erase({msg->epoch, msg->vertex.value()});
  if (const auto* h = sim::as<ObjectHandoff>(full.get())) on_handoff(*h);
}

void PartitionServerCore::on_handoff(const ObjectHandoff& msg) {
  if (msg.epoch > epoch_) {
    handoff_buffer_.push_back(sim::make_message<ObjectHandoff>(msg));
    return;
  }
  if (!handoffs_seen_.insert({msg.epoch, msg.vertex.value()}).second) return;
  insert_envelopes(msg.objects);
  awaited_.erase(msg.vertex);
  fetch_requested_.erase(msg.vertex);
  // The vertex may already be obliged onward (it moved again while in
  // flight); forward immediately.
  if (obligations_.contains(msg.vertex)) {
    if (!config_.eager_plan_transfer) fetch_wanted_.insert(msg.vertex);
    send_handoff_if_possible(msg.vertex);
  }
  resume();
}

void PartitionServerCore::on_fetch(const FetchVertex& msg) {
  if (!obligations_.contains(msg.vertex)) return;  // already shipped
  fetch_wanted_.insert(msg.vertex);
  send_handoff_if_possible(msg.vertex);
}

// ---------------------------------------------------------------------------
// Direct message handlers
// ---------------------------------------------------------------------------

void PartitionServerCore::on_var_transfer(
    const sim::Ref<const VarTransfer>& msg_ptr) {
  const VarTransfer& msg = *msg_ptr;
  const CmdKey key{msg.cmd_id, msg.attempt};
  // A transfer can arrive after this target already resolved the command
  // (a peer's abort raced ahead of the source's objects). Bounce it home
  // immediately or the source would wait (or lose its objects) forever.
  // Duplicates from sources whose transfer was already consumed are
  // dropped instead.
  if (auto res = resolved_.find(key); res != resolved_.end()) {
    if (insert_sorted(res->second, msg.from)) {
      env_.trace(TracePoint::kReturnSent, msg.cmd_id, msg.attempt,
                 msg.from.value());
      send_to_partition(msg.from, sim::make_message<VarReturn>(
                                      msg.cmd_id, msg.attempt, partition_,
                                      msg.objects));
    }
    return;
  }
  auto& received = transfers_[key].received;
  if (!insert_sorted(received, msg_ptr, source_of))
    return;  // duplicate from the source's other replica
  env_.trace(TracePoint::kTransferReceived, msg.cmd_id, msg.attempt,
             msg.from.value());
  resume();
}

void PartitionServerCore::on_var_return(
    const sim::Ref<const VarReturn>& msg_ptr) {
  const VarReturn& msg = *msg_ptr;
  const CmdKey key{msg.cmd_id, msg.attempt};
  if (returns_seen_.contains(key)) return;  // other replica's copy
  // DynaStar returns every lend; under DS-SMR a return only happens when the
  // move aborted. Either way it can outrun our own lend or move: hold it
  // until the record exists.
  const bool dssmr = config_.mode == ExecutionMode::kDSSMR;
  if (dssmr ? !dssmr_moves_.contains(key) : !lends_.contains(key)) {
    early_returns_[key] = msg_ptr;
    return;
  }
  returns_seen_.try_emplace(key);
  early_returns_.erase(key);
  env_.trace(TracePoint::kReturnReceived, msg.cmd_id, msg.attempt,
             msg.from.value());
  insert_envelopes(msg.objects);
  if (dssmr) {
    // Roll the aborted move back: restore the map.
    auto move = dssmr_moves_.find(key);
    for (const auto& [vertex, previous] : move->second.previous_owner) {
      note_vertex_mutation(vertex);  // rolled back: contents changed hands
      if (previous == kNoPartition)
        map_.erase(vertex);
      else
        map_[vertex] = previous;
    }
    dssmr_moves_.erase(move);
  } else {
    auto it = lends_.find(key);
    for (VertexId v : it->second.vertices) {
      auto cnt = lent_vertex_count_.find(v);
      if (cnt != lent_vertex_count_.end() && --cnt->second == 0)
        lent_vertex_count_.erase(cnt);
    }
    // Objects are home again.
    for (const auto& env : msg.objects) lent_objects_.erase(env.id);
    // Any ids lent but not present in the return (deleted by the execution)
    // must still be released.
    std::vector<VertexId> vertices = it->second.vertices;
    lends_.erase(it);
    for (VertexId v : vertices) {
      if (obligations_.contains(v)) send_handoff_if_possible(v);
    }
  }
  resume();
}

void PartitionServerCore::on_abort(const AbortNotice& msg) {
  auto& state = transfers_[CmdKey{msg.cmd_id, msg.attempt}];
  if (!insert_sorted(state.aborted, msg.from)) return;
  resume();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void PartitionServerCore::insert_envelopes(
    const std::vector<ObjectEnvelope>& envelopes) {
  for (const auto& env : envelopes) {
    if (!env.object) continue;  // the object did not exist at the source
    store_.put(env.id, env.vertex, env.object);
  }
}

void PartitionServerCore::extract_vertex(VertexId vertex,
                                         std::vector<ObjectEnvelope>& out) {
  store_.drain_vertex(vertex, [&](ObjectId id, ObjectPtr object) {
    out.push_back(ObjectEnvelope{id, vertex, std::move(object)});
  });
}

void PartitionServerCore::record_hints(const Command& cmd) {
  // Vertex weights ~ access counts; edges between co-accessed vertices.
  // Large omegas (a celebrity post) contribute a star around the first
  // vertex instead of a full clique to keep hint volume linear.
  std::vector<std::uint64_t>& unique = hint_scratch_;
  unique.clear();
  for (VertexId v : cmd.vertices) unique.push_back(v.value());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  hint_vertices_.insert(hint_vertices_.end(), unique.begin(), unique.end());
  if (unique.size() <= 8) {
    for (std::size_t i = 0; i < unique.size(); ++i)
      for (std::size_t j = i + 1; j < unique.size(); ++j)
        hint_edges_.emplace_back(unique[i], unique[j]);
  } else {
    const std::uint64_t hub = cmd.vertices.front().value();
    for (std::uint64_t v : unique) {
      if (v == hub) continue;
      hint_edges_.push_back(std::minmax(hub, v));
    }
  }
  if (++commands_since_hint_ >= config_.hint_batch_commands) maybe_emit_hints();
}

void PartitionServerCore::maybe_emit_hints() {
  commands_since_hint_ = 0;
  if (hint_vertices_.empty()) return;
  // Sorting the raw observations and summing each run yields the weights
  // in key order.
  std::sort(hint_vertices_.begin(), hint_vertices_.end());
  std::vector<std::pair<std::uint64_t, std::int64_t>> vs;
  for (std::uint64_t v : hint_vertices_) {
    if (vs.empty() || vs.back().first != v) vs.emplace_back(v, 0);
    ++vs.back().second;
  }
  std::sort(hint_edges_.begin(), hint_edges_.end());
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>> es;
  for (const auto& [a, b] : hint_edges_) {
    if (es.empty() || std::get<0>(es.back()) != a ||
        std::get<1>(es.back()) != b)
      es.emplace_back(a, b, 0);
    ++std::get<2>(es.back());
  }
  hint_vertices_.clear();
  hint_edges_.clear();
  member_.amcast_as_group(
      group_uid(group_of(partition_), /*purpose=*/1, ++hint_emissions_),
      {kOracleGroup},
      sim::make_message<HintReport>(partition_, std::move(vs), std::move(es)));
}

TimeSeries& PartitionServerCore::node_series(TimeSeries*& handle,
                                             const char* name) {
  if (handle == nullptr)
    handle = &env_.metrics().series(
        name, {{"partition", partition_label_}, {"replica", replica_label_}});
  return *handle;
}

TimeSeries& PartitionServerCore::run_series(TimeSeries*& handle,
                                            const char* name) {
  if (handle == nullptr) handle = &env_.metrics().series(name);
  return *handle;
}

void PartitionServerCore::note_objects_exchanged(double count) {
  if (!primary_ || count <= 0) return;
  const SimTime now = env_.now();
  run_series(exchanged_series_, metric::kObjectsExchanged).add(now, count);
  node_series(node_exchanged_series_, metric::kServerObjectsExchanged)
      .add(now, count);
}

}  // namespace dynastar::core
