// PartitionServerCore: one replica of one state partition.
//
// Implements Algorithm 3 of the paper plus the mechanics the paper leaves to
// the implementation: epoch-tagged addressing validation, a FIFO execution
// queue driven by the group's atomic-multicast delivery order (which is what
// makes the borrow/return waits deadlock-free — acyclic multicast order
// means all partitions process shared commands in a consistent relative
// order), non-blocking partitioning-plan application, and the S-SMR / DS-SMR
// baseline execution modes.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/app.h"
#include "core/config.h"
#include "core/object.h"
#include "core/parallel_exec.h"
#include "core/protocol.h"
#include "core/types.h"
#include "multicast/client.h"
#include "multicast/member.h"
#include "paxos/topology.h"
#include "sim/env.h"
#include "sim/reliable.h"

namespace dynastar::core {

/// Maps partition ids to multicast groups: the oracle is group 0, partition
/// p is group p+1.
inline GroupId group_of(PartitionId p) { return GroupId{p.value() + 1}; }
inline PartitionId partition_of(GroupId g) { return PartitionId{g.value() - 1}; }
constexpr GroupId kOracleGroup{0};

/// Everything a partition replica makes durable. PartitionServerCore
/// inherits it privately and a checkpoint holds one copy of it, so a field
/// added here is captured and restored with no further edit. Copies share
/// what is immutable: ObjectStore shares its object versions (copy-on-write),
/// and the ref-counted messages are immutable. State that is volatile by
/// design stays in the core, outside this struct, and restore_snapshot()
/// resets it explicitly.
struct ServerState {
  /// Dedupe key for per-command coordination: (cmd_id, attempt).
  using CmdKey = std::pair<std::uint64_t, std::uint32_t>;
  struct CmdKeyHash {
    std::size_t operator()(const CmdKey& k) const noexcept {
      return static_cast<std::size_t>(
          common::mix64(k.first ^ common::mix64(k.second)));
    }
  };
  /// Per-command coordination records. Lookup-only (nothing iterates them
  /// but the snapshot copy), so a flat table replaces the tree.
  template <typename V>
  using CmdMap = common::FlatMap<CmdKey, V, CmdKeyHash>;
  /// Set of commands: the mapped byte is unused.
  using CmdSet = CmdMap<bool>;
  using ExecCommandPtr = sim::Ref<const ExecCommand>;

  // At-most-once execution: the latest authoritative (kOk/kNok) reply per
  // client. One entry per client — the closed-loop client has at most one
  // outstanding command, and per-client cmd_ids increase monotonically, so
  // the latest reply is the only one a retransmission can still ask for.
  struct CachedReply {
    std::uint64_t cmd_id = 0;
    ReplyStatus status = ReplyStatus::kOk;
    sim::MessagePtr payload;
  };
  std::unordered_map<std::uint64_t, CachedReply> reply_cache_;

  ObjectStore store_;
  Assignment map_;
  Epoch epoch_ = 0;

  // FIFO execution queue in a-delivery order, of ExecCommand, PlanMsg and
  // StarEpochMsg payloads; `blocked_` true while the head waits for
  // transfers / returns / handoffs.
  std::deque<sim::MessagePtr> queue_;
  bool blocked_ = false;

  // Commands delivered before the plan their addressing was computed
  // against; re-enqueued when that plan is applied.
  std::deque<ExecCommandPtr> future_;

  // Target-side: transfers received per command (may arrive early). Both
  // vectors are sorted by source partition, one element per source.
  struct TransferState {
    std::vector<sim::Ref<const VarTransfer>> received;
    std::vector<PartitionId> aborted;
  };
  CmdMap<TransferState> transfers_;

  // Source-side: objects currently lent out, per command.
  struct LendRecord {
    PartitionId borrower;
    std::vector<VertexId> vertices;
  };
  CmdMap<LendRecord> lends_;
  /// Objects lent out (a set: the mapped byte is unused) and the number of
  /// open lends per vertex. Each borrow inserts and each return erases.
  common::FlatMap<ObjectId, bool> lent_objects_;
  common::FlatMap<VertexId, int> lent_vertex_count_;
  CmdSet returns_seen_;
  // A return can outrun this replica's own processing of the command: the
  // peer source replica's transfer drives the target, whose return lands
  // here before we lent anything. Hold it until the lend record exists.
  CmdMap<sim::Ref<const VarReturn>> early_returns_;
  // Vars already shipped: by a DynaStar/DS-SMR non-target to the target, or
  // by an S-SMR partition to every peer (a replica runs one mode).
  CmdSet sent_transfers_;
  // Target-side: commands already executed or rejected, with the sources
  // whose transfers were consumed (or already bounced). A late transfer
  // from any *other* source is bounced straight back; duplicates from an
  // already-consumed source are dropped (bouncing those would resurrect
  // pre-execution object state at the source). Sources sorted by id.
  CmdMap<std::vector<PartitionId>> resolved_;

  // Plan-application state.
  std::unordered_map<VertexId, PartitionId> awaited_;      // inbound moves
  std::unordered_map<VertexId, PartitionId> obligations_;  // outbound moves
  std::unordered_set<VertexId> fetch_requested_;  // on-demand: asked sources
  std::unordered_set<VertexId> fetch_wanted_;     // on-demand src: send when free
  std::set<std::pair<Epoch, std::uint64_t>> handoffs_seen_;
  std::vector<sim::Ref<const ObjectHandoff>> handoff_buffer_;
  /// Reassembly of chunked handoffs, keyed by (epoch, vertex). Durable:
  /// the reliable link acks each chunk on processing, so a partial assembly
  /// alive at checkpoint time must survive restore or the acked-but-unspliced
  /// chunks would never be retransmitted.
  struct HandoffAssembly {
    std::uint32_t total_chunks = 0;
    std::set<std::uint32_t> have;
    sim::MessagePtr handoff;  // full ObjectHandoff, spliced at completion
  };
  std::map<std::pair<Epoch, std::uint64_t>, HandoffAssembly> handoff_assembly_;

  // Workload-graph hints accumulated since the last report (deterministic
  // across replicas: driven purely by executed commands). Raw observations,
  // one per vertex / edge per command; maybe_emit_hints sorts them and sums
  // each run into its weight.
  std::vector<std::uint64_t> hint_vertices_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hint_edges_;
  std::uint64_t commands_since_hint_ = 0;
  std::uint64_t hint_emissions_ = 0;

  std::uint64_t location_updates_emitted_ = 0;  // DS-SMR uid counter

  // Read-lease state that is durable, for two different reasons (the leased
  // copies and holder records are volatile; see PartitionServerCore):
  //  * lease_grants_ is per-command coordination like transfers_ (a target
  //    blocked at the queue head on already-acked grants would deadlock
  //    without it);
  //  * lease_versions_ must stay MONOTONE across a recovery within an
  //    epoch. Checkpointing makes it a pure function of the applied log, so
  //    all replicas of a group agree on every version number; a recovered
  //    replica restarting its counters at zero could re-issue a version the
  //    group already used for different data, and a stale installed copy
  //    would then validate spuriously.
  /// Lender side: mutation counter per owned vertex (absent = 0).
  std::unordered_map<VertexId, std::uint64_t> lease_versions_;
  /// Target side: grants received per command (may arrive early).
  CmdMap<std::map<PartitionId, sim::Ref<const LeaseGrant>>> lease_grants_;

  // DS-SMR: state needed to roll an aborted permanent move back. Entries
  // for committed moves are never revisited (the target commits exactly
  // once) and are retained for the run's lifetime.
  struct MoveRecord {
    std::vector<std::pair<VertexId, PartitionId>> previous_owner;
  };
  CmdMap<MoveRecord> dssmr_moves_;

  // STAR state (the marker sender and its throttle live in the core).
  Epoch star_epoch_ = 0;
  /// Master: multi-partition commands awaiting the next epoch switch, in
  /// delivery order. Non-masters never queue here (they are not addressed).
  std::deque<ExecCommandPtr> star_deferred_;
  /// Non-master: per-epoch updates that arrived before (or while blocked at)
  /// the epoch's marker. First sender wins; monotone epochs only.
  std::map<Epoch, sim::Ref<const StarEpochUpdate>> star_updates_;
};

class PartitionServerCore : private ServerState,
                            private multicast::Application {
 public:
  /// The replica's durable state at a slot boundary: the multicast + Paxos
  /// position, retained reliable sends, and one copy of ServerState.
  /// Immutable once captured; shared between the node's durable checkpoint
  /// slot and in-flight snapshot transfers.
  struct Snapshot {
    multicast::MemberCore::State member;
    sim::ReliableLink::State reliable;
    ServerState state;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// `checkpoint` is the hosting node's durable checkpoint slot: each
  /// checkpoint boundary stores its capture there.
  PartitionServerCore(sim::Env& env, const paxos::Topology& topology,
                      PartitionId partition, const SystemConfig& config,
                      std::unique_ptr<AppStateMachine> app,
                      SnapshotPtr& checkpoint);

  void start();

  /// Captures the durable state: one ServerState copy (object versions
  /// shared, not cloned) plus each sub-object's own capture().
  [[nodiscard]] SnapshotPtr capture_snapshot() const;

  /// Replaces the durable state with a snapshot's contents and resets the
  /// volatile-by-design fields. Used both when a recovering node restores
  /// its durable checkpoint and when a live replica installs a peer
  /// snapshot.
  void restore_snapshot(const Snapshot& snapshot);

  /// Rejoins the group after restore_snapshot() on a fresh incarnation:
  /// re-arms timers and proactively pulls the missing log suffix.
  void start_recovered();

  /// Handles multicast/paxos traffic and the direct coordination messages.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  // --- pre-run state loading (benchmark setup; not part of the protocol) ---
  void preload_object(ObjectId id, VertexId vertex, ObjectPtr object);
  void preload_assignment(AssignmentPtr assignment, Epoch epoch);

  [[nodiscard]] PartitionId partition() const { return partition_; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] const ObjectStore& store() const { return store_; }
  multicast::MemberCore& member() { return member_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  enum class Classification { kReady, kBlocked, kFuture, kStale, kInvalid };

  // multicast::Application: delivery, the admission gate and snapshots.
  void on_adeliver(const multicast::McastData& data) override;
  /// Admission gate (leader-side, only with server_queue_cap > 0): sheds
  /// client-facing single-partition ExecCommands while the admission depth
  /// is at or above the cap.
  bool admit(const multicast::McastData& data) override;
  void on_shed_deliver(const multicast::McastData& data) override;
  sim::MessagePtr on_checkpoint_boundary() override;
  sim::MessagePtr capture_fresh() override;
  bool install_snapshot(const sim::MessagePtr& snapshot) override;

  // Queue pump.
  /// Load signal driving the admission gate: messages still waiting in the
  /// node's CPU queue plus the execution queue. The protocol queue alone
  /// stays near zero under saturation (it drains synchronously at
  /// delivery) — the real backlog accumulates in the inbox.
  [[nodiscard]] std::size_t admission_depth() const;
  void pump();
  /// Unblocks the queue head after the awaited message arrived.
  void resume();
  bool dispatch_direct(ProcessId from, const sim::MessagePtr& msg);
  bool serve_cached_duplicate(const ExecCommand& ec);
  void remember_reply(const ExecCommand& ec, ReplyStatus status,
                      const sim::MessagePtr& payload);
  Classification classify(const ExecCommand& ec);
  /// True when a peer partition rejected the command (an AbortNotice came).
  [[nodiscard]] bool peer_aborted(const CmdKey& key) const;
  bool objects_available(const ExecCommand& ec);
  bool transfers_ready_for_ssmr(const ExecCommand& ec);
  /// Runs the command against the store (the one call into the app).
  ExecResult execute(const ExecCommand& ec);
  /// Executes `batch` in slot order and hands each command and its result
  /// to `done`. With exec_lanes > 1 and at least `min_batch` commands, the
  /// batch runs as one conflict-graph schedule charged by its makespan, and
  /// `done` runs after the whole batch; otherwise each command charges its
  /// own cost and is done before the next one starts.
  template <typename Done>
  void execute_batch(std::span<const ExecCommandPtr> batch,
                     std::size_t min_batch, Done&& done);
  /// Executes single-partition accesses (a lane batch, or one command when
  /// lanes are off) and finishes each: invalidates leased copies of what it
  /// wrote, replies and records hints.
  void execute_local(std::span<const ExecCommandPtr> batch);
  void execute_create(const ExecCommand& ec);
  void execute_delete(const ExecCommand& ec);
  void execute_target(const ExecCommand& ec);
  void execute_non_target(const ExecCommand& ec);
  void execute_ssmr(const ExecCommand& ec);
  void reject(const ExecCommand& ec, bool notify_peers);
  /// Target side, when the command is resolved without consuming its
  /// transfers: marks every received source resolved, bounces its objects
  /// home and drops the command's transfer and lease-grant records.
  void release(const ExecCommand& ec);
  void apply_plan(const PlanMsg& plan);

  // Intra-partition parallel execution (config_.exec_lanes > 1). Ready
  // single-destination accesses accumulate in exec_pending_ and execute as
  // one conflict-graph-scheduled batch; everything that must observe or
  // mutate state in slot order flushes the batch first.
  [[nodiscard]] bool exec_batchable(const ExecCommand& ec) const;
  void exec_enqueue(const ExecCommandPtr& ec);
  void flush_exec_batch();

  // STAR asymmetric execution (config_.mode == kStar).
  [[nodiscard]] bool is_star_master() const {
    return config_.mode == ExecutionMode::kStar && partition_ == kStarMaster;
  }
  void arm_star_epoch_timer();
  void maybe_emit_star_marker();
  /// Master, at a marker's log position: execute every deferred
  /// multi-partition command against the full replica and ship each other
  /// partition's touched vertices as a StarEpochUpdate.
  void star_execute_batch(Epoch epoch);
  /// Non-master, at a marker's log position: install the master's update.
  void apply_star_update(const StarEpochUpdate& update);
  void on_star_update(const sim::Ref<const StarEpochUpdate>& msg);

  // Read leases (config_.read_leases && mode_supports_leases(config_.mode)).
  // Lender side: grant_lease ships lease-protected copies at the command's
  // slot without taking anything out of the store and without blocking.
  // Reader side: the target waits for one grant per peer, then validates
  // every grant's epoch + per-vertex version at execute time and falls back
  // to the borrow path (kRetry) on any mismatch.
  [[nodiscard]] bool lease_eligible(const ExecCommand& ec) const;
  void grant_lease(const ExecCommand& ec);
  [[nodiscard]] bool lease_grants_complete(const ExecCommand& ec);
  void execute_leased_read(const ExecCommand& ec);
  /// Lender-side hook on every authoritative mutation of `vertex` (write,
  /// borrow out, handoff out, delete, permanent move): bumps the vertex's
  /// lease version and revokes outstanding holder copies. No-op while
  /// leases are disabled, keeping lease-off runs bit-identical.
  void note_vertex_mutation(VertexId vertex);

  // Direct message handlers.
  void on_var_transfer(const sim::Ref<const VarTransfer>& msg);
  void on_var_return(const sim::Ref<const VarReturn>& msg);
  void on_handoff(const ObjectHandoff& msg);
  void on_handoff_chunk(const sim::Ref<const HandoffChunk>& msg);
  void on_fetch(const FetchVertex& msg);
  void on_abort(const AbortNotice& msg);
  void on_lease_grant(const sim::Ref<const LeaseGrant>& msg);
  void on_lease_revoke(const LeaseRevoke& msg);

  // Helpers.
  void send_to_partition(PartitionId p, sim::MessagePtr msg);
  void send_handoff_if_possible(VertexId vertex);
  /// Sends a repartitioning handoff to `to`, split into bandwidth-friendly
  /// HandoffChunk frames when it exceeds the configured transfer chunk size
  /// (the same knob that chunks snapshot installs).
  void send_handoff(PartitionId to, sim::Ref<const ObjectHandoff> handoff);
  void insert_envelopes(const std::vector<ObjectEnvelope>& envelopes);
  /// Takes every object homed at `vertex` out of the store, appending one
  /// envelope per object to `out`.
  void extract_vertex(VertexId vertex, std::vector<ObjectEnvelope>& out);
  void record_hints(const Command& cmd);
  void maybe_emit_hints();
  /// True when read leases are active; note_vertex_mutation is a no-op
  /// otherwise.
  [[nodiscard]] bool leases_on() const {
    return config_.read_leases && mode_supports_leases(config_.mode);
  }
  /// Series `name` labeled with this replica's partition and index,
  /// resolved into `handle` on first use (registry entries never move).
  TimeSeries& node_series(TimeSeries*& handle, const char* name);
  /// Run-wide series `name`, resolved into `handle` on first use.
  TimeSeries& run_series(TimeSeries*& handle, const char* name);
  void note_objects_exchanged(double count);
  /// True on the STAR master for another owner's command, which it applies
  /// without replying.
  [[nodiscard]] bool applies_silently(const ExecCommand& ec) const {
    return config_.mode == ExecutionMode::kStar && ec.target != partition_;
  }
  /// Caches the kOk reply and, unless applied silently, sends it and counts
  /// the command as executed.
  void reply_ok(const ExecCommand& ec, sim::MessagePtr payload,
                bool multi_partition);
  void send_reply(const ExecCommand& ec, ReplyStatus status,
                  sim::MessagePtr payload);
  void trace_cmd(TracePoint point, const ExecCommand& ec,
                 std::uint64_t detail);
  [[nodiscard]] std::vector<ProcessId> reliable_peers() const;

  sim::Env& env_;
  const paxos::Topology& topology_;
  PartitionId partition_;
  const SystemConfig& config_;
  std::unique_ptr<AppStateMachine> app_;
  /// The group's first replica: the one that records the run-wide series
  /// (per-node labeled series are recorded by every replica).
  const bool primary_;
  /// The hosting node's durable checkpoint slot (outlives this core).
  SnapshotPtr& checkpoint_;
  /// Labels identifying this replica in per-node metrics.
  std::string partition_label_;
  std::string replica_label_;
  // Per-delivery and per-command metric series, resolved on first use.
  TimeSeries* queue_depth_series_ = nullptr;
  TimeSeries* executed_series_ = nullptr;
  TimeSeries* node_executed_series_ = nullptr;
  TimeSeries* mpart_series_ = nullptr;
  TimeSeries* node_mpart_series_ = nullptr;
  TimeSeries* exchanged_series_ = nullptr;
  TimeSeries* node_exchanged_series_ = nullptr;

  multicast::MemberCore member_;
  /// Ack+retransmit channel for the direct (non-multicast) coordination
  /// messages; a lost VarTransfer/VarReturn/ObjectHandoff would otherwise
  /// block a partition's queue head forever.
  sim::ReliableLink reliable_;
  // STAR: the epoch-switch markers are emitted by master replicas via a
  // per-replica McastClient (timer emission is replica-local, like the
  // oracle's plan_sender_) and deduplicated by epoch at every receiver, so
  // the first delivered marker defines each group's switch position. Its
  // sends are this replica's own, so it is never captured or restored: a
  // peer install leaves it as it was, and a recovered incarnation gets a
  // fresh one on a channel of its own. Sends a crash loses are safe to
  // lose, since every master replica emits its own copy of each marker.
  multicast::McastClient star_sender_;

  // member_ and reliable_ checkpoint through their own capture().
  // Everything below is volatile by design: outside ServerState, never
  // checkpointed, and reset by restore_snapshot().

  // Parallel-executor state (empty when exec_lanes <= 1). Pending
  // commands were popped from queue_ but not yet applied; every checkpoint
  // capture and snapshot hand-off flushes first, so the batch is never part
  // of durable state, and a restore drops it.
  std::deque<ExecCommandPtr> exec_pending_;
  std::unordered_set<std::uint64_t> exec_pending_clients_;
  bool exec_flush_armed_ = false;

  // Read leases: the leased copies and holder records are volatile by
  // design. A lease is only ever trusted after epoch+version validation, so
  // losing them costs one fallback round-trip, never correctness. A restore
  // clears them (a regression test pins this); the durable lease state is
  // in ServerState.
  struct InstalledLease {
    PartitionId lender;
    Epoch epoch = 0;
    std::uint64_t version = 0;
    std::vector<ObjectEnvelope> objects;
  };
  /// Reader side: installed lease copy per remote vertex.
  std::unordered_map<VertexId, InstalledLease> leases_;
  /// Lender side: partitions believed to hold a live copy of the vertex.
  std::unordered_map<VertexId, std::set<PartitionId>> lease_holders_;

  /// Highest epoch this replica has emitted a marker for; it only throttles
  /// duplicate emission, so a restore resets it to the restored star_epoch_.
  Epoch star_marker_inflight_ = 0;

  /// record_hints' per-command scratch: empty between calls, kept for its
  /// capacity.
  std::vector<std::uint64_t> hint_scratch_;
};

/// Carrier for a server snapshot travelling as an InstallSnapshotResp
/// payload. The snapshot is immutable; installing it copies the ServerState,
/// whose ObjectStore copy shares every object version with the snapshot.
struct ServerSnapshotMsg final : sim::Typed<sim::Kind::kServerSnapshotMsg> {
  explicit ServerSnapshotMsg(PartitionServerCore::SnapshotPtr s)
      : state(std::move(s)) {}
  std::size_t size_bytes() const override {
    return 256 + (state ? state->state.store_.total_bytes() : 0);
  }
  PartitionServerCore::SnapshotPtr state;
};

}  // namespace dynastar::core
