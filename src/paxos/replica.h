// Multi-Paxos replica: proposer + learner role, one instance per group
// member. A stable leader (the owner of the highest seen ballot) batches
// submitted values, runs phase 2 against the group's acceptors, and
// disseminates decisions to the other replicas; leadership changes via
// phase 1 when heartbeats stop. Values are delivered to the upper layer
// (the atomic multicast member) in a single total order per group.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paxos/messages.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::paxos {

/// Leader-side batching window; values submitted within it share a slot.
inline constexpr SimTime kBatchDelay = microseconds(100);
inline constexpr std::size_t kMaxBatch = 64;
inline constexpr SimTime kHeartbeatInterval = milliseconds(20);
/// Base follower patience before starting an election (jitter is added).
inline constexpr SimTime kElectionTimeout = milliseconds(100);
/// Phase-1 retry if no quorum of promises arrives.
inline constexpr SimTime kPhase1Timeout = milliseconds(50);
/// Follower delay before requesting missing decisions from the leader.
inline constexpr SimTime kCatchupDelay = milliseconds(10);

// --- chunked snapshot transfer (see messages.h §Chunked snapshot
// transfer) ---
/// Outstanding chunk requests per transfer (pipeline depth).
inline constexpr std::size_t kTransferWindow = 4;
/// Per-chunk retransmit timer; doubles per retry up to the cap. A timeout
/// also halves the EWMA bandwidth estimate of the peer that went silent,
/// steering the re-request toward a faster (or at least alive) peer.
inline constexpr SimTime kTransferRetryBase = milliseconds(25);
inline constexpr SimTime kTransferRetryCap = milliseconds(400);
/// Weight of the newest per-peer bandwidth sample in the EWMA.
inline constexpr double kTransferEwmaAlpha = 0.4;

struct ReplicaConfig {
  /// Applied log entries retained for serving CatchupReq beyond the last
  /// checkpoint. A replica whose gap starts below a peer's retained log
  /// pulls a full snapshot via InstallSnapshotReq instead of wedging.
  Slot catchup_window = 16384;
  /// Take an application checkpoint every this many applied slots (0
  /// disables). The applied log is truncated up to the last checkpoint, so
  /// log memory is bounded by max(checkpoint_interval, catchup_window)
  /// retained entries once checkpoints start landing.
  Slot checkpoint_interval = 4096;

  /// Chunk payload size in bytes of a chunked snapshot transfer (see
  /// messages.h §Chunked snapshot transfer); must be positive.
  std::size_t transfer_chunk_bytes = 64 * 1024;
};

/// The Paxos-level position captured in a checkpoint and restored on
/// recovery: everything a replica needs to resume learning after its
/// volatile state (log suffix, proposer bookkeeping) is discarded.
struct ReplicaRestart {
  Slot next_deliver_slot = 0;
  std::uint64_t next_seq = 0;
  Ballot ballot = 0;
  Slot last_checkpoint_slot = 0;
};

/// A replica's decided values by slot: a std::deque indexed by
/// `slot - base` whose null entries are slots not decided yet. Slots below
/// the delivery point are dense, so gaps sit only above it.
class DecisionLog {
 public:
  /// The value decided at `slot`, or null.
  [[nodiscard]] sim::MessagePtr find(Slot slot) const {
    return slot >= base_ && slot - base_ < values_.size()
               ? values_[slot - base_]
               : nullptr;
  }
  [[nodiscard]] bool contains(Slot slot) const { return find(slot) != nullptr; }
  /// Number of decided slots (gaps excluded).
  [[nodiscard]] std::size_t size() const { return decided_; }

  /// Records `value` at `slot` unless a value is decided there already.
  void emplace(Slot slot, sim::MessagePtr value);
  /// Drops every slot below `slot`.
  void trim_below(Slot slot);
  void clear() {
    values_.clear();
    decided_ = 0;
  }

  /// Calls fn(slot, value) for every decided slot >= `from`, in slot order.
  template <typename Fn>
  void for_each_from(Slot from, Fn&& fn) const {
    for (std::size_t i = from > base_ ? from - base_ : 0; i < values_.size();
         ++i)
      if (values_[i]) fn(base_ + i, values_[i]);
  }

 private:
  Slot base_ = 0;
  std::deque<sim::MessagePtr> values_;
  std::size_t decided_ = 0;
};

/// The upper layer a ReplicaCore delivers to, in delivery order.
class Learner {
 public:
  /// Called once per delivered value, in delivery order.
  virtual void deliver(const sim::MessagePtr& value) = 0;
  /// Called every time this replica completes phase 1 and starts leading.
  /// Upper layers use it to re-emit coordination messages a failed leader
  /// may have dropped.
  virtual void on_lead() = 0;

 protected:
  ~Learner() = default;
};

/// The layer whose state a ReplicaCore checkpoints and ships to lagging
/// peers as opaque snapshot messages.
class SnapshotOwner {
 public:
  /// Called right after the replica crosses a checkpoint boundary
  /// (`last_checkpoint_slot()` is already advanced): captures the durable
  /// checkpoint synchronously and returns it as the stable snapshot that
  /// chunked transfers serve until the next boundary. Must not consume CPU,
  /// RNG draws or timers.
  virtual sim::MessagePtr on_checkpoint_boundary() = 0;
  /// A snapshot of the current state, shipped whole to a peer whose gap no
  /// stable snapshot covers.
  virtual sim::MessagePtr capture_fresh() = 0;
  /// Installs a peer snapshot; must restore every layer including this
  /// replica's position (via restore()). Returns false to reject a payload
  /// it does not recognise.
  virtual bool install_snapshot(const sim::MessagePtr& snapshot) = 0;

 protected:
  ~SnapshotOwner() = default;
};

class ReplicaCore {
 public:
  ReplicaCore(sim::Env& env, const Topology& topology, GroupId group,
              Learner& learner, SnapshotOwner& owner,
              ReplicaConfig config = {});

  /// Starts timers; leader bootstrap for replica index 0.
  void start();

  /// Resets all volatile state to a checkpointed position. The applied log,
  /// proposer bookkeeping, stashed values and the stable snapshot are
  /// dropped; the suffix above `s.next_deliver_slot` is re-learned via
  /// catch-up or snapshot install.
  void restore(const ReplicaRestart& s);

  /// Captures the Paxos-level position for a checkpoint.
  [[nodiscard]] ReplicaRestart checkpoint_state() const {
    return ReplicaRestart{next_deliver_slot_, next_seq_, ballot_,
                          last_checkpoint_slot_};
  }

  /// Rejoins the group after restore(): arms liveness timers as a follower
  /// and proactively asks the presumptive leader for the missing suffix.
  /// Unlike start(), never bootstraps phase 1 immediately — a recovered
  /// bootstrap replica must not duel the established leader.
  void start_recovered();

  /// Submits a value for total ordering within this group. May be called by
  /// the co-located upper layer at any time.
  void submit(sim::MessagePtr value);

  /// Processes a Paxos message; returns false if the message is not a Paxos
  /// message of this group.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  [[nodiscard]] bool is_leader() const { return state_ == State::kLeading; }
  [[nodiscard]] Ballot ballot() const { return ballot_; }
  [[nodiscard]] ProcessId leader_hint() const;
  [[nodiscard]] std::uint64_t delivered_count() const { return next_seq_; }
  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] Slot next_deliver_slot() const { return next_deliver_slot_; }
  /// Slots below this have been truncated from the applied log.
  [[nodiscard]] Slot floor_slot() const { return floor_slot_; }
  [[nodiscard]] Slot last_checkpoint_slot() const {
    return last_checkpoint_slot_;
  }
  /// Retained applied-log entries (bounded-memory assertion hook).
  [[nodiscard]] std::size_t applied_log_size() const { return log_.size(); }

 private:
  enum class State { kFollower, kPhase1, kLeading };

  void on_propose(const ProposeReq& msg);
  void on_promise(ProcessId from, const Promise& msg);
  void on_nack(const Nack& msg);
  void on_accepted(ProcessId from, const Accepted& msg);
  void on_decision(const Decision& msg);
  void on_heartbeat(const Heartbeat& msg);
  void on_catchup(ProcessId from, const CatchupReq& msg);
  void on_install_req(ProcessId from, const InstallSnapshotReq& msg);
  void on_install_resp(const InstallSnapshotResp& msg);
  void take_checkpoint();

  // Chunked transfer: sender side.
  /// Answers a snapshot request with a ChunkManifest when a stable snapshot
  /// newer than `have_slot` exists, else falls back to the monolithic path.
  void offer_snapshot(ProcessId to, Slot have_slot);
  void on_chunk_req(ProcessId from, const StateChunkReq& msg);
  /// Number of chunks the stable snapshot, which must exist, splits into
  /// (at least one).
  [[nodiscard]] std::uint32_t stable_chunks() const;
  // Chunked transfer: receiver side.
  void on_chunk_manifest(ProcessId from, const ChunkManifest& msg);
  void on_chunk(ProcessId from, const StateChunk& msg);
  void request_chunk(std::uint32_t index, std::uint32_t tries);
  void pump_chunk_requests();
  void complete_transfer();
  void abandon_transfer();
  void note_peer_bandwidth(ProcessId peer, double bytes_per_sec);
  [[nodiscard]] ProcessId best_transfer_peer() const;

  void start_phase1();
  void become_leader();
  void step_down(Ballot higher);
  void flush_batch();
  void propose_slot(Slot slot, sim::MessagePtr value);
  void record_decision(Slot slot, sim::MessagePtr value);
  void try_deliver();
  void arm_election_timer();
  void arm_heartbeat_timer();
  void arm_stash_retry();
  void maybe_request_catchup(Slot leader_next, Slot leader_floor);
  [[nodiscard]] Ballot next_owned_ballot(Ballot at_least) const;

  sim::Env& env_;
  const Topology& topology_;
  GroupId group_;
  ReplicaConfig config_;
  Learner& learner_;
  SnapshotOwner& owner_;
  std::size_t my_index_ = 0;

  State state_ = State::kFollower;
  Ballot ballot_ = 0;

  // Phase 1 bookkeeping.
  std::unordered_set<std::uint64_t> promises_;
  std::map<Slot, AcceptedEntry> recovered_;
  std::uint64_t phase1_epoch_ = 0;

  // Leader phase 2 bookkeeping.
  struct InFlight {
    sim::MessagePtr value;
    std::uint64_t votes = 0;  // bit i: acceptors[i] accepted
    SimTime proposed_at = 0;
  };
  std::map<Slot, InFlight> in_flight_;
  Slot next_slot_ = 0;
  std::vector<sim::MessagePtr> batch_;
  bool flush_scheduled_ = false;

  // Learner state. `floor_slot_` is the lowest slot still in log_; slots
  // below it are only recoverable via snapshot transfer.
  DecisionLog log_;
  Slot next_deliver_slot_ = 0;
  std::uint64_t next_seq_ = 0;
  Slot floor_slot_ = 0;
  Slot last_checkpoint_slot_ = 0;
  /// The snapshot captured at the last checkpoint boundary (null before the
  /// first one and after restore()). Chunked transfers serve it instead of a
  /// fresh capture: boundaries are deterministic slots, so every peer
  /// checkpointed at the same slot serves an interchangeable manifest and a
  /// receiver can resume a transfer from a different peer mid-flight.
  sim::MessagePtr stable_snapshot_;

  // Liveness.
  SimTime last_leader_contact_ = 0;
  bool catchup_pending_ = false;

  // --- chunked transfer state (receiver side) ---
  struct OutstandingChunk {
    ProcessId peer{0};
    SimTime sent_at = 0;
    std::uint32_t tries = 0;
  };
  struct Transfer {
    Slot next_slot = 0;
    std::uint32_t total_chunks = 0;
    std::uint32_t chunk_bytes = 0;
    std::vector<bool> have;
    std::uint32_t have_count = 0;
    /// Next chunk index never requested (requested-and-lost chunks re-enter
    /// via their retransmit timers, not this cursor).
    std::uint32_t next_index = 0;
    /// Snapshot ref from the first chunk that arrived. Peers checkpointed at
    /// the same slot hold state covering the same applied prefix, so chunks
    /// from other peers only contribute wire progress (the sim's stand-in
    /// for byte-range reassembly).
    sim::MessagePtr state;
    std::map<std::uint32_t, OutstandingChunk> outstanding;
    /// Guards retransmit timers across transfer restarts. 32 bits keep a
    /// chunk's timer capture `[this, epoch, index]` at 16 bytes, inside
    /// std::function's inline store: every chunk request arms one.
    std::uint32_t epoch = 0;
    std::uint32_t retransmits = 0;
  };
  std::optional<Transfer> transfer_;
  std::uint32_t transfer_epochs_ = 0;
  /// Observed per-peer bandwidth EWMA (bytes/sec), learned from chunk
  /// request->arrival times; untried peers score +inf so they get probed.
  std::unordered_map<std::uint64_t, double> peer_bandwidth_;

  // Values awaiting a known leader (buffered during elections).
  std::deque<sim::MessagePtr> stashed_;
  bool stash_retry_armed_ = false;
};

}  // namespace dynastar::paxos
