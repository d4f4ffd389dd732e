#include "partitioning/graph.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dynastar::partitioning {

std::int64_t Graph::total_vertex_weight() const {
  return std::accumulate(vertex_weights.begin(), vertex_weights.end(),
                         std::int64_t{0});
}

void GraphBuilder::add_edge(std::uint32_t a, std::uint32_t b, std::int64_t w) {
  assert(a < vertex_weights_.size() && b < vertex_weights_.size());
  if (a == b) return;
  if (a > b) std::swap(a, b);
  edges_.push_back(EdgeRec{a, b, w});
}

Graph GraphBuilder::build() const {
  const std::size_t n = vertex_weights_.size();

  // One sort puts duplicate records adjacent (for the weight merge) and
  // yields ascending neighbor order for both CSR directions.
  std::vector<EdgeRec> edges = edges_;
  std::sort(edges.begin(), edges.end(), [](const EdgeRec& x, const EdgeRec& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  std::size_t merged = 0;
  for (std::size_t i = 0; i < edges.size();) {
    EdgeRec rec = edges[i];
    for (++i; i < edges.size() && edges[i].a == rec.a && edges[i].b == rec.b;
         ++i) {
      rec.w += edges[i].w;
    }
    edges[merged++] = rec;
  }
  edges.resize(merged);

  Graph g;
  g.vertex_weights = vertex_weights_;
  g.xadj.assign(n + 1, 0);
  for (const EdgeRec& e : edges) {
    ++g.xadj[e.a + 1];
    ++g.xadj[e.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.xadj[v + 1] += g.xadj[v];
  g.adjacency.resize(g.xadj[n]);
  g.edge_weights.resize(g.xadj[n]);
  std::vector<std::size_t> cursor(g.xadj.begin(), g.xadj.end() - 1);
  // Records sorted by (a, b) fill each vertex's slice in ascending neighbor
  // order: for fixed a the b's ascend, and for fixed b the a's ascend
  // across the sorted list.
  for (const EdgeRec& e : edges) {
    g.adjacency[cursor[e.a]] = e.b;
    g.edge_weights[cursor[e.a]] = e.w;
    ++cursor[e.a];
    g.adjacency[cursor[e.b]] = e.a;
    g.edge_weights[cursor[e.b]] = e.w;
    ++cursor[e.b];
  }
  return g;
}

WorkloadGraph::Slot WorkloadGraph::intern(std::uint64_t id) {
  auto [it, inserted] = index_.try_emplace(id, 0);
  if (!inserted) return it->second;
  Slot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ids_[slot] = id;
    weights_[slot] = 0;
    alive_[slot] = 1;
  } else {
    slot = static_cast<Slot>(ids_.size());
    ids_.push_back(id);
    weights_.push_back(0);
    alive_.push_back(1);
    adj_.emplace_back();
  }
  it->second = slot;
  return slot;
}

void WorkloadGraph::drop_neighbor(Slot from, Slot target) {
  auto& neighbors = adj_[from];
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i].slot == target) {
      neighbors[i] = neighbors.back();
      neighbors.pop_back();
      return;
    }
  }
  assert(false && "asymmetric adjacency");
}

void WorkloadGraph::add_vertex(std::uint64_t id, std::int64_t weight_delta) {
  weights_[intern(id)] += weight_delta;
}

void WorkloadGraph::add_edge(std::uint64_t a, std::uint64_t b,
                             std::int64_t weight_delta) {
  if (a == b) {
    add_vertex(a, weight_delta);
    return;
  }
  const Slot sa = intern(a);
  const Slot sb = intern(b);
  for (Neighbor& n : adj_[sa]) {
    if (n.slot == sb) {
      n.weight += weight_delta;
      for (Neighbor& m : adj_[sb]) {
        if (m.slot == sa) {
          m.weight += weight_delta;
          return;
        }
      }
      assert(false && "asymmetric adjacency");
    }
  }
  adj_[sa].push_back(Neighbor{sb, weight_delta});
  adj_[sb].push_back(Neighbor{sa, weight_delta});
  ++num_edges_;
}

void WorkloadGraph::remove_vertex(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  const Slot slot = it->second;
  for (const Neighbor& n : adj_[slot]) {
    drop_neighbor(n.slot, slot);
    --num_edges_;
  }
  adj_[slot].clear();
  alive_[slot] = 0;
  weights_[slot] = 0;
  index_.erase(it);
  free_slots_.push_back(slot);
}

WorkloadGraph::Compact WorkloadGraph::compact() const {
  Compact result;
  result.ids.reserve(index_.size());
  for (const auto& [id, slot] : index_) result.ids.push_back(id);
  std::sort(result.ids.begin(), result.ids.end());

  const auto compact_index = [&result](std::uint64_t id) {
    const auto pos =
        std::lower_bound(result.ids.begin(), result.ids.end(), id);
    return static_cast<std::uint32_t>(pos - result.ids.begin());
  };

  GraphBuilder builder(result.ids.size());
  builder.reserve(num_edges_);
  for (std::uint32_t i = 0; i < result.ids.size(); ++i) {
    const Slot slot = index_.at(result.ids[i]);
    builder.set_vertex_weight(i, std::max<std::int64_t>(weights_[slot], 1));
  }
  for (Slot s = 0; s < adj_.size(); ++s) {
    if (alive_[s] == 0) continue;
    const std::uint32_t ci = compact_index(ids_[s]);
    for (const Neighbor& n : adj_[s]) {
      if (ids_[s] < ids_[n.slot]) {
        builder.add_edge(ci, compact_index(ids_[n.slot]), n.weight);
      }
    }
  }
  result.graph = builder.build();
  return result;
}

}  // namespace dynastar::partitioning
