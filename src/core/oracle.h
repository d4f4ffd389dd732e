// OracleCore: one replica of DynaStar's location oracle (Algorithm 2).
//
// The oracle is itself a replicated partition ordered by the same atomic
// multicast stack. It keeps (i) the vertex -> partition location map and
// (ii) the workload graph, answers client prophecies, relays commands to
// the involved partitions, and periodically recomputes an optimized
// partitioning with the METIS-like partitioner.
//
// Determinism: every decision that feeds replicated state (placement of
// creates, repartition triggers, plan content) is a pure function of the
// oracle group's delivery order. Only the *timing* of plan completion is
// replica-local; plans are deduplicated by epoch at the receivers, so the
// first replica to finish defines the plan order (paper §5.2).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/protocol.h"
#include "core/server.h"
#include "core/types.h"
#include "multicast/client.h"
#include "multicast/member.h"
#include "partitioning/graph.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::core {

/// Everything an oracle replica makes durable. OracleCore inherits it
/// privately and a checkpoint holds one copy of it, so a field added here is
/// captured and restored with no further edit.
struct OracleState {
  Assignment map_;
  Epoch epoch_ = 0;
  partitioning::WorkloadGraph graph_;

  /// Creates relayed but whose Task-2 delivery has not landed yet.
  common::FlatMap<VertexId, PartitionId> pending_creates_;

  /// Last command relayed per client. A retransmitted request whose vertices
  /// no longer resolve (the original attempt already executed a delete) is
  /// re-relayed with the original addressing so the target's reply cache can
  /// answer it, instead of bouncing kNok at the client.
  std::unordered_map<std::uint64_t, sim::Ref<const ExecCommand>>
      relay_cache_;

  std::uint64_t changes_ = 0;         // hint deltas since last plan
  std::uint64_t create_round_robin_ = 0;
  std::uint64_t relays_emitted_ = 0;  // uid counter for group multicasts
};

class OracleCore : private OracleState, private multicast::Application {
 public:
  /// An oracle replica's durable state at a slot boundary: the multicast +
  /// Paxos position and one copy of OracleState (location map, workload
  /// graph, relay cache). Immutable once captured.
  struct Snapshot {
    multicast::MemberCore::State member;
    OracleState state;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// `checkpoint` is the hosting node's durable checkpoint slot: each
  /// checkpoint boundary stores its capture there.
  OracleCore(sim::Env& env, const paxos::Topology& topology,
             const SystemConfig& config, SnapshotPtr& checkpoint);

  void start();

  /// Captures the durable state: one OracleState copy plus the member's
  /// own capture.
  [[nodiscard]] SnapshotPtr capture_snapshot() const;

  /// Replaces the durable state with a snapshot's contents and resets the
  /// volatile-by-design plan latch and cooldown anchor.
  void restore_snapshot(const Snapshot& snapshot);

  /// Rejoins the group after restore_snapshot() on a fresh incarnation:
  /// re-arms timers and proactively pulls the missing log suffix. Plan
  /// computations in flight at the crash are abandoned (the latch is reset);
  /// a surviving replica's plan or a later hint delivery re-triggers one.
  void start_recovered();

  bool handle(ProcessId from, const sim::MessagePtr& msg);

  // --- pre-run state loading ---
  void preload_assignment(AssignmentPtr assignment, Epoch epoch);
  /// Seeds the workload graph (so the first plan covers preloaded vertices).
  void preload_vertex(VertexId v, std::int64_t weight = 1);

  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] const partitioning::WorkloadGraph& graph() const {
    return graph_;
  }
  [[nodiscard]] const Assignment& location_map() const { return map_; }
  multicast::MemberCore& member() { return member_; }

  /// Load signal driving the oracle's admission gate: messages waiting in
  /// the node's CPU queue, relays not yet acked by their destination groups
  /// (genuine backpressure from saturated partitions), and creates whose
  /// Task-2 delivery is still in flight.
  [[nodiscard]] std::size_t queue_depth() const {
    return env_.inbox_depth() + member_.outbox_depth() +
           pending_creates_.size();
  }

  /// Forces a repartition on the next hint delivery (used by benches that
  /// reproduce a specific repartition time).
  void request_repartition() { repartition_requested_ = true; }

 private:
  // multicast::Application: delivery, the admission gate and snapshots.
  void on_adeliver(const multicast::McastData& data) override;
  /// Oracle self-protection (only with oracle_inflight_cap > 0): sheds
  /// client lookups before classification while queue_depth() is at or
  /// above the cap, so a hot oracle degrades to serving cached locations
  /// instead of collapsing.
  bool admit(const multicast::McastData& data) override;
  void on_shed_deliver(const multicast::McastData& data) override;
  sim::MessagePtr on_checkpoint_boundary() override;
  sim::MessagePtr capture_fresh() override;
  bool install_snapshot(const sim::MessagePtr& snapshot) override;

  void on_request(const OracleRequest& request);
  void on_create_apply(const ExecCommand& exec);
  void on_hint(const HintReport& hint);
  void on_location_update(const LocationUpdate& update);
  void on_plan(const PlanMsg& plan);
  void maybe_trigger_repartition();
  void arm_plan_repair_timer();
  void finish_repartition(Epoch candidate,
                          std::shared_ptr<partitioning::WorkloadGraph::Compact>
                              snapshot);
  void send_prophecy(const OracleRequest& request, ReplyStatus status,
                     PartitionId target,
                     std::vector<std::pair<VertexId, PartitionId>> locations,
                     SimTime retry_after = 0);
  [[nodiscard]] PartitionId lookup(VertexId v) const;

  sim::Env& env_;
  const paxos::Topology& topology_;
  const SystemConfig& config_;
  /// The group's first replica: the one that records the run-wide series.
  const bool primary_;
  /// The hosting node's durable checkpoint slot (outlives this core).
  SnapshotPtr& checkpoint_;
  /// Label identifying this replica in per-node metrics.
  std::string replica_label_;
  // Per-delivery and per-query metric series, resolved on first use.
  TimeSeries* queue_depth_series_ = nullptr;
  TimeSeries* queries_series_ = nullptr;

  multicast::MemberCore member_;
  // Per-replica PlanMsg sender; replica-local, so never in a snapshot (see
  // PartitionServerCore::star_sender_).
  multicast::McastClient plan_sender_;

  // Volatile by design (outside OracleState, never checkpointed): the
  // replica-local plan-computation latch and cooldown anchor. A restored
  // replica starts with no plan in flight; restore_snapshot() resets them.
  bool computing_ = false;            // a plan is being computed
  SimTime last_plan_time_ = 0;        // replica-local cooldown anchor
  bool repartition_requested_ = false;
};

/// Carrier for an oracle snapshot travelling as an InstallSnapshotResp
/// payload.
struct OracleSnapshotMsg final : sim::Typed<sim::Kind::kOracleSnapshotMsg> {
  explicit OracleSnapshotMsg(OracleCore::SnapshotPtr s)
      : state(std::move(s)) {}
  std::size_t size_bytes() const override {
    return 256 + (state ? state->state.map_.size() * 16 : 0);
  }
  OracleCore::SnapshotPtr state;
};

}  // namespace dynastar::core
