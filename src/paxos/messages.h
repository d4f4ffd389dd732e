// Wire messages of the Multi-Paxos protocol.
//
// Log positions are `Slot` (0-based), ballots are totally ordered integers
// whose owner rotates over the group's replicas (owner = ballot % replicas).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/message.h"

namespace dynastar::paxos {

using Slot = std::uint64_t;
using Ballot = std::uint64_t;

constexpr Ballot kNoBallot = UINT64_MAX;

/// A slot the acceptor has voted on (used in Promise to recover values).
struct AcceptedEntry {
  Slot slot;
  Ballot ballot;
  sim::MessagePtr value;
};

/// Client/replica -> leader: please order this value.
struct ProposeReq final : sim::Typed<sim::Kind::kProposeReq> {
  explicit ProposeReq(sim::MessagePtr v) : value(std::move(v)) {}
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  sim::MessagePtr value;
};

/// Phase 1a: leader -> acceptors.
struct Prepare final : sim::Typed<sim::Kind::kPrepare> {
  Prepare(GroupId g, Ballot b, Slot from) : group(g), ballot(b), from_slot(from) {}
  GroupId group;
  Ballot ballot;
  Slot from_slot;
};

/// Phase 1b: acceptor -> leader, with every vote at slot >= from_slot.
struct Promise final : sim::Typed<sim::Kind::kPromise> {
  Promise(GroupId g, Ballot b, std::vector<AcceptedEntry> acc)
      : group(g), ballot(b), accepted(std::move(acc)) {}
  std::size_t size_bytes() const override { return 64 + accepted.size() * 64; }
  GroupId group;
  Ballot ballot;
  std::vector<AcceptedEntry> accepted;
};

/// Acceptor -> proposer: your ballot is stale (promised is higher).
struct Nack final : sim::Typed<sim::Kind::kNack> {
  Nack(GroupId g, Ballot b, Ballot promised_b)
      : group(g), ballot(b), promised(promised_b) {}
  GroupId group;
  Ballot ballot;
  Ballot promised;
};

/// Phase 2a: leader -> acceptors. `committed` piggybacks the leader's
/// applied prefix so acceptors can trim votes below it.
struct Accept final : sim::Typed<sim::Kind::kAccept> {
  Accept(GroupId g, Ballot b, Slot s, Slot committed_prefix, sim::MessagePtr v)
      : group(g),
        ballot(b),
        slot(s),
        committed(committed_prefix),
        value(std::move(v)) {}
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  GroupId group;
  Ballot ballot;
  Slot slot;
  Slot committed;
  sim::MessagePtr value;
};

/// Phase 2b: acceptor -> leader.
struct Accepted final : sim::Typed<sim::Kind::kAccepted> {
  Accepted(GroupId g, Ballot b, Slot s) : group(g), ballot(b), slot(s) {}
  GroupId group;
  Ballot ballot;
  Slot slot;
};

/// Leader -> other replicas: slot is chosen.
struct Decision final : sim::Typed<sim::Kind::kDecision> {
  Decision(GroupId g, Slot s, sim::MessagePtr v)
      : group(g), slot(s), value(std::move(v)) {}
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  GroupId group;
  Slot slot;
  sim::MessagePtr value;
};

/// Leader -> replicas: liveness heartbeat (suppresses elections).
/// `floor_slot` advertises the leader's log floor: slots below it have been
/// truncated and can only be recovered via snapshot transfer.
struct Heartbeat final : sim::Typed<sim::Kind::kHeartbeat> {
  Heartbeat(GroupId g, Ballot b, Slot next, Slot floor)
      : group(g), ballot(b), next_slot(next), floor_slot(floor) {}
  GroupId group;
  Ballot ballot;
  Slot next_slot;
  Slot floor_slot;
};

/// Lagging replica -> leader: resend decisions starting at from_slot.
struct CatchupReq final : sim::Typed<sim::Kind::kCatchupReq> {
  CatchupReq(GroupId g, Slot from) : group(g), from_slot(from) {}
  GroupId group;
  Slot from_slot;
};

/// Lagging replica -> leader: my gap starts below your log floor; send a
/// full snapshot instead of decisions.
struct InstallSnapshotReq final : sim::Typed<sim::Kind::kInstallSnapshotReq> {
  InstallSnapshotReq(GroupId g, Slot have) : group(g), have_slot(have) {}
  GroupId group;
  Slot have_slot;
};

/// Leader -> lagging replica: an opaque application snapshot covering every
/// slot below `next_slot`. The payload is the SnapshotOwner's fresh capture
/// and is installed by its install_snapshot; Paxos itself only transports
/// it.
struct InstallSnapshotResp final : sim::Typed<sim::Kind::kInstallSnapshotResp> {
  InstallSnapshotResp(GroupId g, Slot next, sim::MessagePtr st)
      : group(g), next_slot(next), state(std::move(st)) {}
  std::size_t size_bytes() const override {
    return 64 + (state ? state->size_bytes() : 0);
  }
  GroupId group;
  Slot next_slot;
  sim::MessagePtr state;
};

// --- Chunked snapshot transfer (receiver-driven pull) -----------------------
//
// Replaces the monolithic InstallSnapshotResp whenever the peer holds a
// stable snapshot newer than the gap. A lagging replica still announces its
// gap with InstallSnapshotReq; the peer answers with a ChunkManifest of its
// latest *stable* (checkpoint-boundary) snapshot instead of a fresh
// monolithic capture. The receiver then pulls fixed-size chunks — windowed,
// with per-chunk retransmit timers — from whichever group peer its
// observed-bandwidth EWMA ranks best, and splices the state in only once
// every chunk has arrived. Checkpoints land at deterministic slot
// boundaries, so every peer whose last checkpoint is at `next_slot` serves
// the same manifest: a transfer survives its original sender crashing by
// re-pulling the remaining chunks from someone else (Chiba/Ohmura/Nakamura,
// arXiv:2110.04448 + arXiv:2204.08656).

/// Peer -> lagging replica: my stable snapshot covers slots < next_slot, cut
/// into total_chunks pieces of chunk_bytes (the last one possibly shorter).
struct ChunkManifest final : sim::Typed<sim::Kind::kChunkManifest> {
  ChunkManifest(GroupId g, Slot next, std::uint32_t chunks, std::uint32_t bytes)
      : group(g), next_slot(next), total_chunks(chunks), chunk_bytes(bytes) {}
  GroupId group;
  Slot next_slot;
  std::uint32_t total_chunks;
  std::uint32_t chunk_bytes;
};

/// Receiver -> peer: send chunk `index` of the manifest at `next_slot`.
struct StateChunkReq final : sim::Typed<sim::Kind::kStateChunkReq> {
  StateChunkReq(GroupId g, Slot next, std::uint32_t idx)
      : group(g), next_slot(next), index(idx) {}
  GroupId group;
  Slot next_slot;
  std::uint32_t index;
};

/// Peer -> receiver: one chunk. The simulator substitutes a shared ref for
/// serialized bytes, so the chunk carries the whole snapshot object while
/// only `payload_bytes` occupy the wire; the receiver reads the payload
/// exclusively at manifest completion (the splice point).
struct StateChunk final : sim::Typed<sim::Kind::kStateChunk> {
  StateChunk(GroupId g, Slot next, std::uint32_t idx, std::uint32_t chunks,
             std::uint32_t bytes, sim::MessagePtr st)
      : group(g),
        next_slot(next),
        index(idx),
        total_chunks(chunks),
        payload_bytes(bytes),
        state(std::move(st)) {}
  std::size_t size_bytes() const override { return 64 + payload_bytes; }
  GroupId group;
  Slot next_slot;
  std::uint32_t index;
  std::uint32_t total_chunks;
  std::uint32_t payload_bytes;
  sim::MessagePtr state;
};

/// Receiver -> peer: chunk `index` arrived. Closes the per-chunk loop on the
/// wire (senders are stateless in the sim, but the ack keeps the exchange
/// faithful to the real protocol and feeds per-link accounting).
struct StateChunkAck final : sim::Typed<sim::Kind::kStateChunkAck> {
  StateChunkAck(GroupId g, Slot next, std::uint32_t idx)
      : group(g), next_slot(next), index(idx) {}
  GroupId group;
  Slot next_slot;
  std::uint32_t index;
};

/// Values proposed by the leader are batches of submitted values; the
/// replica unwraps them on delivery. Empty batches act as no-ops when a new
/// leader fills log gaps.
struct Batch final : sim::Typed<sim::Kind::kBatch> {
  explicit Batch(std::vector<sim::MessagePtr> vs) : values(std::move(vs)) {}
  std::size_t size_bytes() const override {
    std::size_t total = 32;
    for (const auto& v : values) total += v->size_bytes();
    return total;
  }
  std::vector<sim::MessagePtr> values;
};

/// Dispatch guard for the group-addressed messages above: runs `fn` on `msg`
/// as a `T` if it belongs to `group`, and returns whether it did. `msg` must
/// be of kind `T::kKind`.
template <typename T, typename Fn>
bool for_group(const sim::Message& msg, GroupId group, Fn&& fn) {
  const T& m = *sim::as<T>(&msg);
  if (m.group != group) return false;
  fn(m);
  return true;
}

}  // namespace dynastar::paxos
