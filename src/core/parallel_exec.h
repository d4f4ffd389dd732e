// Deterministic intra-partition parallel command execution (P-SMR style).
//
// Commands already declare their full vertex sets for the borrow protocol,
// which is exactly the dependency information Rethinking State-Machine
// Replication for Parallelism uses to execute non-conflicting commands
// concurrently: two commands conflict iff their vertex sets intersect and
// they are not both read-only. Per batch of decided commands we build that
// conflict graph and derive a wave schedule from slot order + conflict edges
// alone (never wall clock):
//
//   wave(i) = 0 if i has no conflicting predecessor in slot order,
//             1 + max(wave(j)) over conflicting predecessors j < i otherwise
//
// and round-robin the commands of each wave across N lanes in slot order.
// Every replica computes the same schedule from the same decided prefix, so
// the schedule itself is replicated state — no coordination needed.
//
// Commands execute one at a time, in slot order, on the sim thread
// (trivially serial-equivalent). The schedule shapes only the CPU-time
// accounting: a batch charges its *schedule makespan* to the sim CPU instead
// of the serial sum, so runs stay bit-deterministic and replayable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/types.h"

namespace dynastar::core {

/// Sorted, deduplicated read/write vertex sets of one command.
struct ExecIntent {
  std::vector<VertexId> reads;
  std::vector<VertexId> writes;
};

/// Derives the intent from a command's declared vertex set: read-only
/// commands read every vertex they name, everything else writes them.
[[nodiscard]] ExecIntent intent_for(const Command& cmd);

/// Conflict graph over one batch, edges restricted to slot-order
/// predecessors (i conflicts with some j < i).
struct ConflictGraph {
  std::size_t commands = 0;
  std::size_t edges = 0;
  /// preds[i] = conflicting j < i, ascending.
  std::vector<std::vector<std::uint32_t>> preds;
};

[[nodiscard]] ConflictGraph build_conflict_graph(
    const std::vector<ExecIntent>& intents);

/// Deterministic wave/lane assignment for a conflict graph.
struct LaneSchedule {
  std::uint32_t lanes = 1;
  std::uint32_t waves = 0;
  std::vector<std::uint32_t> wave_of;
  std::vector<std::uint32_t> lane_of;
};

[[nodiscard]] LaneSchedule build_schedule(const ConflictGraph& graph,
                                          std::uint32_t lanes);

/// Accounting for one executed batch.
struct BatchStats {
  std::size_t commands = 0;
  std::size_t conflict_edges = 0;
  std::uint32_t waves = 0;
  /// Sum of per-command CPU costs (what serial execution would charge).
  SimTime serial_cost = 0;
  /// Schedule cost: sum over waves of the busiest lane in that wave.
  SimTime makespan = 0;
  /// serial_cost / (lanes * makespan) — 1.0 means perfectly packed lanes.
  double lane_occupancy = 1.0;
};

/// Parallel-time accounting for one batch that has already executed:
/// `costs[i]` is the CPU cost item i charged. Builds the schedule for
/// `lanes` lanes; each wave costs its busiest lane, and waves are sequential.
[[nodiscard]] BatchStats account_batch(const std::vector<ExecIntent>& intents,
                                       const std::vector<SimTime>& costs,
                                       std::uint32_t lanes);

}  // namespace dynastar::core
