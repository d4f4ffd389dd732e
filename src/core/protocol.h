// Protocol payloads exchanged between DynaStar clients, the oracle, and
// partition servers. Payloads travel either inside atomic multicasts
// (ordered) or as direct sends (unordered coordination: variable exchange,
// replies, handoffs).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"
#include <utility>
#include <vector>

#include "core/object.h"
#include "core/types.h"
#include "sim/message.h"

namespace dynastar::core {

/// An object in flight between partitions. `object` is the sender's stored
/// version, shared rather than copied (ObjectStore's copy-on-write keeps it
/// immutable); a null object means "the id was requested but does not
/// exist".
struct ObjectEnvelope {
  ObjectId id;
  VertexId vertex;
  ObjectPtr object;
};

inline std::size_t envelopes_bytes(const std::vector<ObjectEnvelope>& objs) {
  std::size_t total = 0;
  for (const auto& env : objs)
    total += 24 + (env.object ? env.object->size_bytes() : 0);
  return total;
}

// ---------------------------------------------------------------------------
// Ordered payloads (inside atomic multicasts)
// ---------------------------------------------------------------------------

/// Client -> oracle group: resolve and relay this command (cache miss,
/// create, or retry path).
struct OracleRequest final : sim::Typed<sim::Kind::kOracleRequest> {
  OracleRequest(CommandPtr c, std::uint32_t a) : cmd(std::move(c)), attempt(a) {}
  std::size_t size_bytes() const override { return cmd->size_bytes(); }
  CommandPtr cmd;
  /// Client-side resubmission counter; disambiguates retried commands in
  /// every dedupe key downstream.
  std::uint32_t attempt;
};

/// Oracle or cache-hitting client -> involved partitions: execute `cmd` at
/// `target`; `dests` is the full addressing the sender computed and `epoch`
/// the plan epoch it used.
struct ExecCommand final : sim::Typed<sim::Kind::kExecCommand> {
  ExecCommand(CommandPtr c, std::vector<PartitionId> d,
              std::vector<PartitionId> owners_by_vertex, PartitionId t, Epoch e,
              std::uint32_t a)
      : cmd(std::move(c)),
        dests(std::move(d)),
        owners(std::move(owners_by_vertex)),
        target(t),
        epoch(e),
        attempt(a) {}
  std::size_t size_bytes() const override {
    return 32 + dests.size() * 8 + owners.size() * 8 + cmd->size_bytes();
  }
  CommandPtr cmd;
  std::vector<PartitionId> dests;
  /// Sender's believed owner of cmd->vertices[i] (parallel array); servers
  /// validate these claims against their own map.
  std::vector<PartitionId> owners;
  PartitionId target;
  Epoch epoch;
  std::uint32_t attempt;
};

/// Partition group -> oracle group: accumulated workload-graph observations
/// (Task 4 hints): vertex access weights and co-access edge weights.
struct HintReport final : sim::Typed<sim::Kind::kHintReport> {
  HintReport(PartitionId p,
             std::vector<std::pair<std::uint64_t, std::int64_t>> vs,
             std::vector<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>> es)
      : from(p), vertex_weights(std::move(vs)), edges(std::move(es)) {}
  std::size_t size_bytes() const override {
    return 32 + vertex_weights.size() * 16 + edges.size() * 24;
  }
  PartitionId from;
  std::vector<std::pair<std::uint64_t, std::int64_t>> vertex_weights;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>> edges;
};

/// Location assignment: vertex -> partition. Shared so a plan multicast to
/// every group references one allocation.
// Flat open-addressing map: the oracle probes this on every command.
using Assignment = common::FlatMap<VertexId, PartitionId>;
using AssignmentPtr = std::shared_ptr<const Assignment>;

/// One vertex relocation in a plan.
struct VertexMove {
  VertexId vertex;
  PartitionId from;
  PartitionId to;
};
using MoveListPtr = std::shared_ptr<const std::vector<VertexMove>>;

/// Oracle replica -> all groups + oracle: a freshly computed partitioning
/// plan. The first delivered plan with a given epoch wins; duplicates from
/// other oracle replicas are ignored. `moves` is the diff against the
/// oracle's previous map — servers need the old owner explicitly because a
/// vertex created since their last plan is absent from their local map.
struct PlanMsg final : sim::Typed<sim::Kind::kPlanMsg> {
  PlanMsg(Epoch e, AssignmentPtr a, MoveListPtr m)
      : epoch(e), assignment(std::move(a)), moves(std::move(m)) {}
  std::size_t size_bytes() const override {
    return 32 + assignment->size() * 16 + moves->size() * 24;
  }
  Epoch epoch;
  AssignmentPtr assignment;
  MoveListPtr moves;
};

/// DS-SMR only: partition group -> oracle group, permanent relocations
/// caused by a multi-partition command.
struct LocationUpdate final : sim::Typed<sim::Kind::kLocationUpdate> {
  explicit LocationUpdate(std::vector<std::pair<VertexId, PartitionId>> m)
      : moves(std::move(m)) {}
  std::size_t size_bytes() const override { return 16 + moves.size() * 16; }
  std::vector<std::pair<VertexId, PartitionId>> moves;
};

/// STAR only: master replica -> all partition groups, "switch to epoch
/// `epoch` here". Log-ordered like a PlanMsg: any master replica may emit
/// it (timer-driven, so emission is replica-local), the first delivered
/// marker for an epoch wins and duplicates are ignored, so every replica
/// of every partition phase-switches at the same point of its delivery
/// order.
struct StarEpochMsg final : sim::Typed<sim::Kind::kStarEpochMsg> {
  explicit StarEpochMsg(Epoch e) : epoch(e) {}
  Epoch epoch;
};

// ---------------------------------------------------------------------------
// Direct (unordered) messages
// ---------------------------------------------------------------------------

/// Oracle replica -> client: the prophecy (§4.1). On kOk the client waits
/// for the target partition's reply; `locations` refreshes the client's
/// cache.
struct Prophecy final : sim::Typed<sim::Kind::kProphecy> {
  Prophecy(std::uint64_t id, std::uint32_t a, ReplyStatus s, PartitionId t,
           Epoch e, std::vector<std::pair<VertexId, PartitionId>> locs,
           SimTime retry = 0)
      : cmd_id(id),
        attempt(a),
        status(s),
        target(t),
        epoch(e),
        locations(std::move(locs)),
        retry_after(retry) {}
  std::size_t size_bytes() const override {
    return 40 + locations.size() * 16;
  }
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  ReplyStatus status;
  PartitionId target;
  Epoch epoch;
  std::vector<std::pair<VertexId, PartitionId>> locations;
  /// On kBusy: server-computed minimum wait before the client retries.
  SimTime retry_after;
};

/// Partition replica -> client: execution result (kOk) or kRetry when the
/// command's addressing was computed against a stale epoch/map.
struct CommandReply final : sim::Typed<sim::Kind::kCommandReply> {
  CommandReply(std::uint64_t id, std::uint32_t a, ReplyStatus s,
               sim::MessagePtr p, SimTime retry = 0)
      : cmd_id(id),
        attempt(a),
        status(s),
        payload(std::move(p)),
        retry_after(retry) {}
  std::size_t size_bytes() const override {
    return 24 + (payload ? payload->size_bytes() : 0);
  }
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  ReplyStatus status;
  sim::MessagePtr payload;
  /// On kBusy: server-computed minimum wait before the client retries.
  SimTime retry_after;
};

/// Source partition replica -> target partition replicas: the omega objects
/// the source holds, for one command (DynaStar borrow; S-SMR copy).
struct VarTransfer final : sim::Typed<sim::Kind::kVarTransfer> {
  VarTransfer(std::uint64_t id, std::uint32_t a, PartitionId f,
              std::vector<ObjectEnvelope> o)
      : cmd_id(id), attempt(a), from(f), objects(std::move(o)) {}
  std::size_t size_bytes() const override {
    return 32 + envelopes_bytes(objects);
  }
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  PartitionId from;
  std::vector<ObjectEnvelope> objects;
};

/// Target partition replica -> source replicas: borrowed objects coming
/// home after execution (includes objects the execution created for
/// borrowed vertices).
struct VarReturn final : sim::Typed<sim::Kind::kVarReturn> {
  VarReturn(std::uint64_t id, std::uint32_t a, PartitionId f,
            std::vector<ObjectEnvelope> o)
      : cmd_id(id), attempt(a), from(f), objects(std::move(o)) {}
  std::size_t size_bytes() const override {
    return 32 + envelopes_bytes(objects);
  }
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  PartitionId from;
  std::vector<ObjectEnvelope> objects;
};

/// Old owner -> new owner (plan application): all objects of one vertex.
struct ObjectHandoff final : sim::Typed<sim::Kind::kObjectHandoff> {
  ObjectHandoff(Epoch e, PartitionId f, VertexId v,
                std::vector<ObjectEnvelope> o)
      : epoch(e), from(f), vertex(v), objects(std::move(o)) {}
  std::size_t size_bytes() const override {
    return 40 + envelopes_bytes(objects);
  }
  Epoch epoch;
  PartitionId from;
  VertexId vertex;
  std::vector<ObjectEnvelope> objects;
};

/// One frame of a chunked ObjectHandoff. Large handoffs are split so they
/// share WAN pipes fairly instead of occupying a link for the whole payload
/// (the FIFO bandwidth model serializes transmissions per link). As with
/// StateChunk, the simulator substitutes a shared ref for serialized bytes:
/// every frame carries the full handoff while only `payload_bytes` occupy
/// the wire, and the receiver splices it in once all frames arrived.
struct HandoffChunk final : sim::Typed<sim::Kind::kHandoffChunk> {
  HandoffChunk(Epoch e, PartitionId f, VertexId v, std::uint32_t idx,
               std::uint32_t chunks, std::uint32_t bytes, sim::MessagePtr h)
      : epoch(e),
        from(f),
        vertex(v),
        index(idx),
        total_chunks(chunks),
        payload_bytes(bytes),
        handoff(std::move(h)) {}
  std::size_t size_bytes() const override { return 48 + payload_bytes; }
  Epoch epoch;
  PartitionId from;
  VertexId vertex;
  std::uint32_t index;
  std::uint32_t total_chunks;
  std::uint32_t payload_bytes;
  sim::MessagePtr handoff;
};

/// New owner -> old owner (on-demand plan mode): send me vertex `vertex`.
struct FetchVertex final : sim::Typed<sim::Kind::kFetchVertex> {
  FetchVertex(Epoch e, PartitionId f, VertexId v)
      : epoch(e), from(f), vertex(v) {}
  Epoch epoch;
  PartitionId from;
  VertexId vertex;
};

/// STAR only: master replica -> one non-master partition's replicas, the
/// post-batch state of every vertex owned by that partition which the
/// deferred batch of `epoch` touched. Non-masters block at the epoch's
/// marker until this arrives, then install it and switch — so their state
/// at the switch equals the master's, regardless of marker/update race.
struct StarEpochUpdate final : sim::Typed<sim::Kind::kStarEpochUpdate> {
  StarEpochUpdate(Epoch e, PartitionId f,
                  std::vector<std::pair<VertexId, std::vector<ObjectEnvelope>>> v)
      : epoch(e), from(f), vertices(std::move(v)) {}
  std::size_t size_bytes() const override {
    std::size_t total = 32;
    for (const auto& [vertex, objs] : vertices) total += 8 + envelopes_bytes(objs);
    return total;
  }
  Epoch epoch;
  PartitionId from;
  std::vector<std::pair<VertexId, std::vector<ObjectEnvelope>>> vertices;
};

/// One leased vertex inside a LeaseGrant. `objects` empty means the lender
/// believes the reader already holds a live lease on `vertex` at `version`
/// (data-less refresh); non-empty carries the lender's object versions
/// (shared, not copied) and installs or refreshes the reader-side lease.
struct LeaseEntry {
  VertexId vertex;
  /// Lender-side mutation counter for the vertex at grant time. A reader
  /// validates a data-less grant only if its installed lease carries the
  /// same version (and epoch); any write, borrow, or handoff on the lender
  /// bumps the counter and invalidates outstanding copies.
  std::uint64_t version = 0;
  std::vector<ObjectEnvelope> objects;
};

/// Lender (non-target) replica -> target replicas: lease-protected copies of
/// the omega vertices the lender owns, for one read-only multi-partition
/// command. Unlike VarTransfer, the authoritative copies stay home and the
/// lender does not block — the grant is positioned in the lender's delivery
/// order at the command's slot, which is what serializes the read against
/// lender-side writes.
struct LeaseGrant final : sim::Typed<sim::Kind::kLeaseGrant> {
  LeaseGrant(std::uint64_t id, std::uint32_t a, PartitionId f, Epoch e,
             std::vector<LeaseEntry> en)
      : cmd_id(id), attempt(a), from(f), epoch(e), entries(std::move(en)) {}
  std::size_t size_bytes() const override {
    std::size_t total = 40;
    for (const auto& entry : entries)
      total += 16 + envelopes_bytes(entry.objects);
    return total;
  }
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  PartitionId from;
  /// Lender's plan epoch at grant time; the reader rejects the grant (and
  /// falls back to borrow/return via kRetry) unless it matches its own.
  Epoch epoch;
  std::vector<LeaseEntry> entries;
};

/// Either direction: drop the lease bookkeeping for these vertices.
/// Lender -> reader on writes/migration/delete (the reader forgets its
/// copies); reader -> lender on failed validation or local invalidation
/// (the lender forgets the holder, so the next grant ships full data).
/// Purely an optimization for freshness — validation never trusts a revoke
/// having arrived, only epoch+version agreement at execute time.
struct LeaseRevoke final : sim::Typed<sim::Kind::kLeaseRevoke> {
  LeaseRevoke(PartitionId f, std::vector<VertexId> v)
      : from(f), vertices(std::move(v)) {}
  std::size_t size_bytes() const override { return 16 + vertices.size() * 8; }
  PartitionId from;
  std::vector<VertexId> vertices;
};

/// Involved partition -> other involved partitions: I rejected this command
/// (stale addressing); do not wait for my variables.
struct AbortNotice final : sim::Typed<sim::Kind::kAbortNotice> {
  AbortNotice(std::uint64_t id, std::uint32_t a, PartitionId f)
      : cmd_id(id), attempt(a), from(f) {}
  std::uint64_t cmd_id;
  std::uint32_t attempt;
  PartitionId from;
};

}  // namespace dynastar::core
