#include "core/oracle.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/metric_names.h"
#include "partitioning/partitioner.h"

namespace dynastar::core {

namespace {
constexpr SimTime kRequestCost = microseconds(2);

/// Simulated METIS runtime: base + per (V+E) element cost.
constexpr SimTime kPlanComputeBase = milliseconds(50);
constexpr double kPlanComputeNsPerElement = 200.0;

std::uint64_t oracle_uid(std::uint64_t purpose, std::uint64_t counter) {
  std::uint64_t x = 0x5bd1e995ULL * (purpose + 1) + counter;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x | (1ULL << 62);
}
}  // namespace

OracleCore::OracleCore(sim::Env& env, const paxos::Topology& topology,
                       const SystemConfig& config, SnapshotPtr& checkpoint)
    : env_(env),
      topology_(topology),
      config_(config),
      primary_(topology.group(kOracleGroup).replicas.front() == env.self()),
      checkpoint_(checkpoint),
      member_(env, topology, kOracleGroup, *this, config.paxos),
      plan_sender_(env, topology) {
  const auto& replicas = topology.group(kOracleGroup).replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i)
    if (replicas[i] == env.self()) replica_label_ = std::to_string(i);
}

void OracleCore::start() {
  member_.start();
  arm_plan_repair_timer();
}

sim::MessagePtr OracleCore::on_checkpoint_boundary() {
  checkpoint_ = capture_snapshot();
  env_.metrics().add_counter(metric::kOracleCheckpoints);
  env_.trace(TracePoint::kCheckpoint, member_.replica().last_checkpoint_slot(),
             0, /*oracle=*/UINT64_MAX);
  return sim::make_message<OracleSnapshotMsg>(checkpoint_);
}

sim::MessagePtr OracleCore::capture_fresh() {
  return sim::make_message<OracleSnapshotMsg>(capture_snapshot());
}

bool OracleCore::install_snapshot(const sim::MessagePtr& snapshot) {
  const auto* snap = sim::as<OracleSnapshotMsg>(snapshot.get());
  if (snap == nullptr || !snap->state) return false;
  restore_snapshot(*snap->state);
  env_.metrics().add_counter(metric::kOracleSnapshotInstalls);
  env_.trace(TracePoint::kSnapshotInstall,
             snap->state->member.replica.next_deliver_slot, 0,
             /*oracle=*/UINT64_MAX);
  return true;
}

OracleCore::SnapshotPtr OracleCore::capture_snapshot() const {
  auto snap = std::make_shared<Snapshot>();
  snap->member = member_.capture_state();
  snap->state = *this;
  return snap;
}

void OracleCore::restore_snapshot(const Snapshot& snapshot) {
  member_.restore_state(snapshot.member);
  OracleState::operator=(snapshot.state);
  // Replica-local plan state: any computation in flight at the crash is
  // gone (its timer died with the old incarnation); reset the latch so a
  // later hint delivery can trigger a plan again.
  computing_ = false;
  repartition_requested_ = false;
  last_plan_time_ = env_.now();
}

void OracleCore::start_recovered() {
  env_.trace(TracePoint::kRecoveryRestore,
             member_.replica().next_deliver_slot(), 0, /*oracle=*/UINT64_MAX);
  member_.start_recovered();
  arm_plan_repair_timer();
}

void OracleCore::arm_plan_repair_timer() {
  // PlanMsg multicasts go out via the replica-local plan_sender_; re-drive
  // any that a destination group never acknowledged.
  env_.start_timer(milliseconds(100), [this] {
    plan_sender_.retransmit_unacked();
    arm_plan_repair_timer();
  });
}

void OracleCore::preload_assignment(AssignmentPtr assignment, Epoch epoch) {
  map_ = *assignment;
  epoch_ = epoch;
  for (const auto& [vertex, partition] : map_) graph_.add_vertex(vertex.value(), 0);
}

void OracleCore::preload_vertex(VertexId v, std::int64_t weight) {
  graph_.add_vertex(v.value(), weight);
}

bool OracleCore::handle(ProcessId from, const sim::MessagePtr& msg) {
  if (member_.handle(from, msg)) return true;
  // McastAcks for this replica's own PlanMsg sends (or late duplicates of
  // acks the member already pruned).
  return plan_sender_.handle(msg);
}

PartitionId OracleCore::lookup(VertexId v) const {
  auto pending = pending_creates_.find(v);
  if (pending != pending_creates_.end()) return pending->second;
  auto it = map_.find(v);
  return it == map_.end() ? kNoPartition : it->second;
}

void OracleCore::on_adeliver(const multicast::McastData& data) {
  // Admission depth sampled at each delivery (mirrors the servers'
  // server.queue_depth series; mean per bucket = sum / delivery count).
  if (queue_depth_series_ == nullptr)
    queue_depth_series_ = &env_.metrics().series(
        metric::kOracleQueueDepth, {{"replica", replica_label_}});
  queue_depth_series_->add(env_.now(), static_cast<double>(queue_depth()));
  const sim::Message* payload = data.payload.get();
  switch (payload->kind()) {
    case sim::Kind::kOracleRequest:
      on_request(*sim::as<OracleRequest>(payload));
      break;
    case sim::Kind::kExecCommand:
      on_create_apply(*sim::as<ExecCommand>(payload));
      break;
    case sim::Kind::kHintReport:
      on_hint(*sim::as<HintReport>(payload));
      break;
    case sim::Kind::kLocationUpdate:
      on_location_update(*sim::as<LocationUpdate>(payload));
      break;
    case sim::Kind::kPlanMsg:
      on_plan(*sim::as<PlanMsg>(payload));
      break;
    default:
      break;
  }
}

void OracleCore::send_prophecy(
    const OracleRequest& request, ReplyStatus status, PartitionId target,
    std::vector<std::pair<VertexId, PartitionId>> locations,
    SimTime retry_after) {
  env_.send_message(request.cmd->client,
                    sim::make_message<Prophecy>(
                        request.cmd->cmd_id, request.attempt, status, target,
                        epoch_, std::move(locations), retry_after));
}

bool OracleCore::admit(const multicast::McastData& data) {
  if (config_.oracle_inflight_cap == 0) return true;
  const auto* req = sim::as<OracleRequest>(data.payload.get());
  if (req == nullptr) return true;
  const std::size_t depth = queue_depth();
  if (depth >= config_.oracle_inflight_cap) return false;
  env_.trace(TracePoint::kAdmit, req->cmd->cmd_id, req->attempt, depth);
  return true;
}

void OracleCore::on_shed_deliver(const multicast::McastData& data) {
  const auto* req = sim::as<OracleRequest>(data.payload.get());
  if (req == nullptr) return;
  const std::size_t depth = queue_depth();
  env_.trace(TracePoint::kShed, req->cmd->cmd_id, req->attempt, depth);
  // Degraded service: answer from the location map without classifying or
  // relaying. The kBusy prophecy still refreshes the client's cache with
  // every resolvable vertex, so the retry can often go partition-direct and
  // skip the hot oracle entirely.
  std::vector<std::pair<VertexId, PartitionId>> locations;
  for (VertexId v : req->cmd->vertices) {
    const PartitionId p = lookup(v);
    if (p != kNoPartition) locations.emplace_back(v, p);
  }
  const SimTime retry_after = busy_retry_after(depth);
  env_.trace(TracePoint::kBusyReply, req->cmd->cmd_id, req->attempt,
             static_cast<std::uint64_t>(retry_after));
  send_prophecy(*req, ReplyStatus::kBusy, kNoPartition, std::move(locations),
                retry_after);
  if (primary_) env_.metrics().add_counter(metric::kOracleShed);
}

void OracleCore::on_request(const OracleRequest& request) {
  env_.consume_cpu(kRequestCost);
  if (primary_) {
    if (queries_series_ == nullptr)
      queries_series_ = &env_.metrics().series(metric::kOracleQueries);
    queries_series_->add(env_.now(), 1.0);
  }

  const Command& cmd = *request.cmd;

  if (cmd.type == CommandType::kCreate) {
    const VertexId vertex = cmd.vertices.front();
    PartitionId target = lookup(vertex);
    if (target == kNoPartition) {
      // "Random" placement (Algorithm 2 line 6) — round robin is random
      // w.r.t. the workload and, critically, deterministic across replicas.
      target = PartitionId{create_round_robin_++ % config_.num_partitions};
      pending_creates_.emplace(vertex, target);
    }
    // Retransmitted creates resolve to the already-placed vertex, so the
    // same target is addressed again and its reply cache answers. STAR also
    // addresses the master partition, which applies the create silently to
    // keep its full replica complete.
    std::vector<PartitionId> dests{target};
    std::vector<GroupId> groups{kOracleGroup, group_of(target)};
    if (config_.mode == ExecutionMode::kStar) {
      if (kStarMaster != target) {
        dests.push_back(kStarMaster);
        std::sort(dests.begin(), dests.end());
        groups.push_back(group_of(kStarMaster));
      }
    }
    auto exec = sim::make_message<ExecCommand>(
        request.cmd, std::move(dests), std::vector<PartitionId>{target},
        target, epoch_, request.attempt);
    relay_cache_[cmd.client.value()] = exec;
    env_.trace(TracePoint::kOracleRelay, cmd.cmd_id, request.attempt,
               target.value());
    member_.amcast_as_group(oracle_uid(/*purpose=*/1, ++relays_emitted_),
                            std::move(groups), exec);
    send_prophecy(request, ReplyStatus::kOk, target, {{vertex, target}});
    return;
  }

  // Access / delete: every vertex must exist.
  std::vector<PartitionId> owners;
  owners.reserve(cmd.vertices.size());
  std::vector<std::pair<VertexId, PartitionId>> locations;
  for (VertexId v : cmd.vertices) {
    const PartitionId p = lookup(v);
    if (p == kNoPartition) {
      // A vertex can be un-resolvable because an earlier attempt of this
      // very command already executed its delete. Re-relay with the original
      // addressing (under the fresh attempt) so the target's reply cache
      // answers; the prophecy carries no locations — the pinned addressing
      // must not seed the client's cache.
      auto cached = relay_cache_.find(cmd.client.value());
      if (cached != relay_cache_.end() &&
          cached->second->cmd->cmd_id == cmd.cmd_id) {
        const ExecCommand& prev = *cached->second;
        if (primary_)
          env_.metrics().add_counter(metric::kOracleReplyCacheHits);
        env_.trace(TracePoint::kOracleRelay, cmd.cmd_id, request.attempt,
                   prev.target.value());
        std::vector<GroupId> groups;
        groups.reserve(prev.dests.size() + 1);
        for (PartitionId d : prev.dests) groups.push_back(group_of(d));
        if (cmd.type == CommandType::kDelete) groups.push_back(kOracleGroup);
        member_.amcast_as_group(
            oracle_uid(/*purpose=*/1, ++relays_emitted_), std::move(groups),
            sim::make_message<ExecCommand>(prev.cmd, prev.dests,
                                                prev.owners, prev.target,
                                                prev.epoch, request.attempt));
        send_prophecy(request, ReplyStatus::kOk, prev.target, {});
        return;
      }
      send_prophecy(request, ReplyStatus::kNok, kNoPartition, {});
      return;
    }
    owners.push_back(p);
    locations.emplace_back(v, p);
  }
  // The mode seam: DynaStar/S-SMR*/DS-SMR address the distinct owners; STAR
  // additionally pins the master (singles) or defers to it (multi-owner).
  Route route = route_command(config_.mode, owners);

  std::vector<GroupId> groups;
  groups.reserve(route.dests.size() + 1);
  for (PartitionId p : route.dests) groups.push_back(group_of(p));
  if (cmd.type == CommandType::kDelete) groups.push_back(kOracleGroup);

  auto exec = sim::make_message<ExecCommand>(
      request.cmd, std::move(route.dests), std::move(owners), route.target,
      epoch_, request.attempt);
  relay_cache_[cmd.client.value()] = exec;
  // Lease-aware serving: the partitions decide lease eligibility from the
  // relay itself (same predicate both sides), so the oracle only accounts
  // for it — these relays resolve without any borrow/return traffic.
  if (primary_ && config_.read_leases &&
      mode_supports_leases(config_.mode) && exec->dests.size() > 1 &&
      is_read_only(cmd))
    env_.metrics().add_counter(metric::kOracleLeaseRelays);
  env_.trace(TracePoint::kOracleRelay, cmd.cmd_id, request.attempt,
             route.target.value());
  member_.amcast_as_group(oracle_uid(/*purpose=*/1, ++relays_emitted_),
                          std::move(groups), exec);
  send_prophecy(request, ReplyStatus::kOk, route.target, std::move(locations));
}

void OracleCore::on_create_apply(const ExecCommand& exec) {
  // Task 2/5: our own copy of a relayed create or delete.
  const VertexId vertex = exec.cmd->vertices.front();
  if (exec.cmd->type == CommandType::kCreate) {
    map_[vertex] = exec.target;
    graph_.add_vertex(vertex.value(), 1);
    pending_creates_.erase(vertex);
  } else if (exec.cmd->type == CommandType::kDelete) {
    map_.erase(vertex);
    graph_.remove_vertex(vertex.value());
  }
}

void OracleCore::on_hint(const HintReport& hint) {
  std::uint64_t delta = 0;
  for (const auto& [vertex, weight] : hint.vertex_weights) {
    graph_.add_vertex(vertex, weight);
    delta += static_cast<std::uint64_t>(weight);
  }
  for (const auto& [a, b, weight] : hint.edges)
    graph_.add_edge(a, b, weight);
  changes_ += delta;
  maybe_trigger_repartition();
}

void OracleCore::on_location_update(const LocationUpdate& update) {
  for (const auto& [vertex, partition] : update.moves) map_[vertex] = partition;
}

void OracleCore::maybe_trigger_repartition() {
  if (!config_.repartitioning_enabled || computing_) return;
  if (!repartition_requested_ && changes_ < config_.repartition_hint_threshold)
    return;
  // Cooldown between plans. This check reads the replica-local clock, so the
  // two oracle replicas may disagree about a borderline trigger — that is
  // safe: plans are deduplicated by epoch at every receiver, so at most one
  // plan per epoch ever applies.
  if (!repartition_requested_ &&
      env_.now() - last_plan_time_ < config_.min_repartition_interval) {
    return;
  }
  repartition_requested_ = false;
  changes_ = 0;
  computing_ = true;
  last_plan_time_ = env_.now();

  // Deterministic snapshot at this log position: graph + current map. The
  // partitioner itself runs "in the background" (paper §5.2): the oracle
  // keeps serving; completion is modeled as a timer proportional to the
  // graph size, with per-replica jitter (first finisher's plan wins).
  auto snapshot = std::make_shared<partitioning::WorkloadGraph::Compact>(
      graph_.compact());
  const Epoch candidate = epoch_ + 1;
  const auto elements = static_cast<double>(snapshot->graph.num_vertices() +
                                            2 * snapshot->graph.num_edges());
  SimTime delay = kPlanComputeBase +
                  static_cast<SimTime>(elements * kPlanComputeNsPerElement);
  delay += static_cast<SimTime>(
      env_.random().uniform(0, static_cast<std::uint64_t>(delay / 10 + 1)));
  env_.start_timer(delay, [this, candidate, snapshot] {
    finish_repartition(candidate, snapshot);
  });
  if (primary_)
    env_.metrics().series(metric::kOracleRepartitions).add(env_.now(), 1.0);
}

void OracleCore::finish_repartition(
    Epoch candidate,
    std::shared_ptr<partitioning::WorkloadGraph::Compact> snapshot) {
  if (epoch_ >= candidate) return;  // another replica's plan landed first

  const std::uint32_t k = config_.num_partitions;
  partitioning::PartitionerConfig pconfig = config_.partitioner;
  pconfig.seed = candidate;  // deterministic across replicas
  auto result = partitioning::partition_graph(snapshot->graph, k, pconfig);

  // Relabel parts to agree with the current map as much as possible so the
  // plan moves the minimum number of vertices.
  std::vector<std::uint32_t> previous(snapshot->ids.size(), 0);
  for (std::size_t i = 0; i < snapshot->ids.size(); ++i) {
    auto it = map_.find(VertexId{snapshot->ids[i]});
    previous[i] =
        it == map_.end() ? 0 : static_cast<std::uint32_t>(it->second.value());
  }
  auto relabeled = partitioning::remap_to_minimize_moves(
      snapshot->graph, k, previous, std::move(result.assignment));

  auto assignment = std::make_shared<Assignment>();
  auto moves = std::make_shared<std::vector<VertexMove>>();
  assignment->reserve(snapshot->ids.size());
  for (std::size_t i = 0; i < snapshot->ids.size(); ++i) {
    const VertexId vertex{snapshot->ids[i]};
    const PartitionId new_owner{relabeled[i]};
    assignment->emplace(vertex, new_owner);
    auto it = map_.find(vertex);
    const PartitionId old_owner = it == map_.end() ? kNoPartition : it->second;
    if (old_owner != new_owner && old_owner != kNoPartition)
      moves->push_back(VertexMove{vertex, old_owner, new_owner});
  }

  std::vector<GroupId> all_groups;
  all_groups.reserve(config_.num_partitions + 1);
  all_groups.push_back(kOracleGroup);
  for (std::uint32_t p = 0; p < config_.num_partitions; ++p)
    all_groups.push_back(group_of(PartitionId{p}));
  plan_sender_.amcast(std::move(all_groups),
                      sim::make_message<PlanMsg>(candidate, std::move(assignment),
                                                 std::move(moves)));
  LOG_INFO << "oracle replica " << env_.self() << " finished plan epoch "
           << candidate << " cut=" << result.edge_cut
           << " imbalance=" << result.achieved_imbalance;
}

void OracleCore::on_plan(const PlanMsg& plan) {
  if (plan.epoch <= epoch_) return;  // the other replica's duplicate
  for (const auto& [vertex, partition] : *plan.assignment)
    map_[vertex] = partition;
  epoch_ = plan.epoch;
  computing_ = false;
  last_plan_time_ = env_.now();
  env_.trace(TracePoint::kPlanApplied, plan.epoch, 0, /*oracle=*/UINT64_MAX);
  if (primary_)
    env_.metrics().series(metric::kOraclePlansApplied).add(env_.now(), 1.0);
}

}  // namespace dynastar::core
