// Core DynaStar types: commands, vertices, and replies.
//
// DynaStar tracks locations at an application-chosen granularity (the
// paper's §4.1 footnote): each state variable (object) has a *home vertex*;
// the location map and the workload graph are per-vertex. TPC-C uses one
// vertex per warehouse/district, Chirper one vertex per user.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "sim/message.h"

namespace dynastar::core {

struct VertexTag {};
/// Granularity unit of the location map and workload graph.
using VertexId = StrongId<VertexTag>;

enum class CommandType : std::uint8_t {
  kCreate,  // create(v): new vertex + its first object
  kAccess,  // access(omega): read/modify existing objects
  kDelete,  // delete(v): remove a vertex and its objects
};

/// One client command. Immutable once multicast; the `objects`/`vertices`
/// arrays are parallel (vertices[i] is the home vertex of objects[i]) and
/// together describe omega, the command's read/write set.
struct Command final : sim::Typed<sim::Kind::kCommand> {
  Command(std::uint64_t id, ProcessId client_process, CommandType t,
          std::vector<ObjectId> objs, std::vector<VertexId> verts,
          sim::MessagePtr app_payload, bool read_only_hint = false)
      : cmd_id(id),
        client(client_process),
        type(t),
        objects(std::move(objs)),
        vertices(std::move(verts)),
        payload(std::move(app_payload)),
        read_only(read_only_hint) {}
  std::size_t size_bytes() const override {
    return 64 + objects.size() * 16 +
           (payload ? payload->size_bytes() : 0);
  }

  std::uint64_t cmd_id;
  ProcessId client;
  CommandType type;
  std::vector<ObjectId> objects;
  std::vector<VertexId> vertices;
  sim::MessagePtr payload;
  /// Workload-declared hint: this command mutates nothing. Read-only
  /// commands on the same vertices may execute concurrently (parallel
  /// executor); a wrong hint breaks serial-equivalence, so apps must only
  /// set it for ops with no writes at all.
  bool read_only;
};

using CommandPtr = sim::Ref<const Command>;

/// Single source of truth for "this command mutates nothing". Creates and
/// deletes always mutate regardless of the workload hint; only access
/// commands whose driver declared a pure read qualify. Every consumer of
/// the hint (parallel executor intents, read-lease eligibility) must go
/// through this helper so the classification cannot drift between layers.
[[nodiscard]] constexpr bool is_read_only(CommandType type,
                                          bool read_only_hint) {
  return type == CommandType::kAccess && read_only_hint;
}

[[nodiscard]] inline bool is_read_only(const Command& cmd) {
  return is_read_only(cmd.type, cmd.read_only);
}

/// Outcome status carried in replies to the client. New values append at
/// the end — the numeric value rides in trace `detail` fields and must stay
/// stable.
enum class ReplyStatus : std::uint8_t {
  kOk,
  kRetry,       // stale addressing/epoch: re-resolve via the oracle
  kNok,         // oracle rejected the command (e.g., unknown variable)
  kTimeout,     // client-side: retransmission attempts exhausted
  kBusy,        // shed at admission; retry after the carried hint
  kOverloaded,  // client-side: retry budget exhausted on Busy replies
};

/// Plan epochs: each partitioning plan gets a monotonically increasing id;
/// commands carry the epoch their addressing was computed against.
using Epoch = std::uint64_t;

}  // namespace dynastar::core
