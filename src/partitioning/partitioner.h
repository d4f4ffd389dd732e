// Multilevel k-way graph partitioner (METIS-style).
//
// Same algorithm family as METIS (Karypis & Kumar): (1) coarsen by
// heavy-edge matching, (2) greedy region-growing initial partitioning on the
// coarsest graph, (3) boundary refinement while uncoarsening. The objective
// is minimum edge-cut subject to a vertex-weight balance constraint — the
// paper configures METIS with 20% allowed imbalance (§5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "partitioning/graph.h"

namespace dynastar::partitioning {

/// Stop coarsening once the graph has at most max(k * per_part, floor)
/// vertices.
inline constexpr std::size_t kCoarsestPerPart = 32;
inline constexpr std::size_t kCoarsestFloor = 256;
/// Boundary-refinement sweeps per level.
inline constexpr int kRefinementPasses = 6;

struct PartitionerConfig {
  /// Maximum allowed part weight as a multiple of the average (1.2 = 20%).
  double imbalance = 1.20;
  std::uint64_t seed = 1;
};

struct PartitionResult {
  /// vertex -> part in [0, k).
  std::vector<std::uint32_t> assignment;
  /// Sum of weights of edges whose endpoints land in different parts.
  std::int64_t edge_cut = 0;
  /// max part weight / average part weight.
  double achieved_imbalance = 1.0;
};

/// Partitions `graph` into `k` parts. k >= 1; k == 1 returns the trivial
/// partitioning.
PartitionResult partition_graph(const Graph& graph, std::uint32_t k,
                                const PartitionerConfig& config = {});

/// Computes the edge-cut of an assignment (utility for tests/benches).
std::int64_t edge_cut(const Graph& graph,
                      const std::vector<std::uint32_t>& assignment);

/// max part weight / average part weight for an assignment.
double imbalance(const Graph& graph, std::uint32_t k,
                 const std::vector<std::uint32_t>& assignment);

/// Relabels `next` parts to maximize vertex-weight overlap with `prev`
/// (greedy maximum-agreement matching). DynaStar's oracle uses this so a
/// fresh METIS solution moves as few variables as possible.
std::vector<std::uint32_t> remap_to_minimize_moves(
    const Graph& graph, std::uint32_t k, const std::vector<std::uint32_t>& prev,
    std::vector<std::uint32_t> next);

}  // namespace dynastar::partitioning
