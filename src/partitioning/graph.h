// Graph structures for workload-driven partitioning.
//
// WorkloadGraph is the oracle's dynamic accumulation structure (the paper's
// workload graph: vertices = state variables at the application's chosen
// granularity, edge weights = how often commands co-access two vertices).
// Graph is the compact CSR form handed to the partitioner.
//
// WorkloadGraph interns application vertex ids into dense slots via a flat
// map and keeps per-slot adjacency as small vectors (degrees in these
// workloads are tiny), replacing the previous nested unordered_map-of-
// unordered_map layout; GraphBuilder accumulates edges in one flat record
// vector and does a single sort+merge in build(). Both changes remove the
// per-edge allocation/pointer-chasing tax from the oracle's hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"

namespace dynastar::partitioning {

/// Compact immutable undirected graph with vertex and edge weights (CSR).
struct Graph {
  std::vector<std::int64_t> vertex_weights;
  std::vector<std::size_t> xadj;        // size n+1
  std::vector<std::uint32_t> adjacency; // neighbor vertex indices
  std::vector<std::int64_t> edge_weights;

  [[nodiscard]] std::size_t num_vertices() const {
    return vertex_weights.size();
  }
  [[nodiscard]] std::size_t num_edges() const { return adjacency.size() / 2; }
  [[nodiscard]] std::int64_t total_vertex_weight() const;

  /// Degree of vertex v.
  [[nodiscard]] std::size_t degree(std::uint32_t v) const {
    return xadj[v + 1] - xadj[v];
  }
};

/// Builder used by tests, generators, and WorkloadGraph::compact():
/// accumulate edges into a flat record vector, then freeze with one
/// sort+merge pass.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices)
      : vertex_weights_(num_vertices, 1) {}

  /// Pre-sizes the edge accumulator (callers that know their edge count —
  /// e.g. WorkloadGraph::compact() — avoid regrowth).
  void reserve(std::size_t num_edges) { edges_.reserve(num_edges); }

  void set_vertex_weight(std::uint32_t v, std::int64_t w) {
    vertex_weights_[v] = w;
  }
  /// Adds (or reinforces) the undirected edge {a, b}.
  void add_edge(std::uint32_t a, std::uint32_t b, std::int64_t w = 1);

  [[nodiscard]] Graph build() const;

 private:
  struct EdgeRec {
    std::uint32_t a;  // canonical: a < b
    std::uint32_t b;
    std::int64_t w;
  };

  std::vector<std::int64_t> vertex_weights_;
  std::vector<EdgeRec> edges_;
};

/// The oracle's evolving workload graph over application vertex ids.
class WorkloadGraph {
 public:
  /// Reinforces a vertex (weight_delta ~ accesses observed).
  void add_vertex(std::uint64_t id, std::int64_t weight_delta = 1);
  /// Reinforces the undirected edge {a, b}; creates the vertices if needed.
  void add_edge(std::uint64_t a, std::uint64_t b, std::int64_t weight_delta = 1);
  /// Removes a vertex and its edges (delete(v) in the paper).
  void remove_vertex(std::uint64_t id);

  [[nodiscard]] std::size_t num_vertices() const { return index_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }

  struct Compact {
    Graph graph;
    std::vector<std::uint64_t> ids;  // compact index -> application vertex id
  };
  /// Freezes into CSR form for the partitioner.
  [[nodiscard]] Compact compact() const;

 private:
  using Slot = std::uint32_t;
  struct Neighbor {
    Slot slot;
    std::int64_t weight;
  };

  /// Returns the dense slot for `id`, creating one (reusing freed slots)
  /// if the vertex is new.
  Slot intern(std::uint64_t id);
  /// Drops the {a, b} entry from a's adjacency list (swap-erase).
  void drop_neighbor(Slot from, Slot target);

  common::FlatMap<std::uint64_t, Slot> index_;  // id -> slot (live only)
  std::vector<std::uint64_t> ids_;              // slot -> id
  std::vector<std::int64_t> weights_;           // slot -> vertex weight
  std::vector<std::uint8_t> alive_;             // slot -> liveness
  std::vector<std::vector<Neighbor>> adj_;      // slot -> neighbors
  std::vector<Slot> free_slots_;
  std::size_t num_edges_ = 0;
};

}  // namespace dynastar::partitioning
