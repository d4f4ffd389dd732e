#include "partitioning/partitioner.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "common/rng.h"

namespace dynastar::partitioning {

namespace {

/// One coarsening level: the coarse graph plus the fine->coarse projection.
struct Level {
  Graph graph;
  std::vector<std::uint32_t> fine_to_coarse;  // indexed by fine vertex
};

/// Heavy-edge matching + contraction. Returns nullopt-equivalent (empty
/// fine_to_coarse) when the graph stops shrinking meaningfully.
Level coarsen_once(const Graph& g, Rng& rng) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());

  constexpr std::uint32_t kUnmatched = UINT32_MAX;
  std::vector<std::uint32_t> match(n, kUnmatched);
  for (std::uint32_t v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint32_t best = kUnmatched;
    std::int64_t best_w = -1;
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjacency[e];
      if (match[u] != kUnmatched || u == v) continue;
      if (g.edge_weights[e] > best_w) {
        best_w = g.edge_weights[e];
        best = u;
      }
    }
    if (best != kUnmatched) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }

  Level level;
  level.fine_to_coarse.assign(n, kUnmatched);
  std::uint32_t next_coarse = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (level.fine_to_coarse[v] != kUnmatched) continue;
    level.fine_to_coarse[v] = next_coarse;
    if (match[v] != v) level.fine_to_coarse[match[v]] = next_coarse;
    ++next_coarse;
  }

  // Contract with flat sort-based edge aggregation (a hash map per coarse
  // vertex would dominate the runtime on million-vertex graphs).
  level.graph.vertex_weights.assign(next_coarse, 0);
  for (std::uint32_t v = 0; v < n; ++v)
    level.graph.vertex_weights[level.fine_to_coarse[v]] += g.vertex_weights[v];

  struct CoarseEdge {
    std::uint32_t from;
    std::uint32_t to;
    std::int64_t weight;
  };
  std::vector<CoarseEdge> edges;
  edges.reserve(g.adjacency.size());
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t cv = level.fine_to_coarse[v];
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t cu = level.fine_to_coarse[g.adjacency[e]];
      if (cv != cu) edges.push_back({cv, cu, g.edge_weights[e]});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const CoarseEdge& a, const CoarseEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });

  Graph& cg = level.graph;
  cg.xadj.assign(next_coarse + 1, 0);
  cg.adjacency.reserve(edges.size());
  cg.edge_weights.reserve(edges.size());
  std::size_t i = 0;
  for (std::uint32_t c = 0; c < next_coarse; ++c) {
    while (i < edges.size() && edges[i].from == c) {
      std::int64_t weight = edges[i].weight;
      const std::uint32_t to = edges[i].to;
      ++i;
      while (i < edges.size() && edges[i].from == c && edges[i].to == to) {
        weight += edges[i].weight;
        ++i;
      }
      cg.adjacency.push_back(to);
      cg.edge_weights.push_back(weight);
    }
    cg.xadj[c + 1] = cg.adjacency.size();
  }
  return level;
}

/// One greedy graph-growing attempt (GGGP): grow each part from a random
/// seed, always absorbing the unassigned vertex with the strongest
/// connection to the growing region — this keeps hub vertices from being
/// swallowed by the wrong region (a plain BFS would take them in arrival
/// order).
std::vector<std::uint32_t> grow_once(const Graph& g, std::uint32_t k,
                                     Rng& rng) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> part(n, k - 1);  // leftovers -> last part
  const std::int64_t total = g.total_vertex_weight();
  const std::int64_t target = total / k;

  std::vector<bool> assigned(n, false);
  std::vector<std::int64_t> gain(n, 0);
  std::size_t num_assigned = 0;

  for (std::uint32_t p = 0; p + 1 < k; ++p) {
    std::int64_t weight = 0;
    // Lazy max-heap over (gain, vertex); stale entries are skipped on pop.
    std::priority_queue<std::pair<std::int64_t, std::uint32_t>> frontier;
    while (weight < target && num_assigned < n) {
      std::uint32_t v = UINT32_MAX;
      while (!frontier.empty()) {
        auto [g_at_push, candidate] = frontier.top();
        frontier.pop();
        if (!assigned[candidate] && gain[candidate] == g_at_push) {
          v = candidate;
          break;
        }
      }
      if (v == UINT32_MAX) {
        // Fresh seed: a random unassigned vertex.
        std::uint32_t tries = 0;
        do {
          v = static_cast<std::uint32_t>(rng.uniform(0, n - 1));
        } while (assigned[v] && ++tries < 64);
        if (assigned[v]) {
          for (std::uint32_t u = 0; u < n; ++u)
            if (!assigned[u]) {
              v = u;
              break;
            }
        }
        if (assigned[v]) break;
      }
      assigned[v] = true;
      ++num_assigned;
      part[v] = p;
      weight += g.vertex_weights[v];
      for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const std::uint32_t u = g.adjacency[e];
        if (assigned[u]) continue;
        gain[u] += g.edge_weights[e];
        frontier.emplace(gain[u], u);
      }
    }
    // Reset gains touched by this region so the next part starts clean.
    for (std::uint32_t u = 0; u < n; ++u)
      if (!assigned[u]) gain[u] = 0;
  }
  return part;
}

void refine(const Graph& g, std::uint32_t k, std::vector<std::uint32_t>& part,
            double imbalance_limit, int passes, Rng& rng);

/// Multi-restart initial partitioning: refine each attempt and keep the
/// best feasible cut (METIS-style).
std::vector<std::uint32_t> initial_partition(const Graph& g, std::uint32_t k,
                                             double imbalance_limit,
                                             int refinement_passes, Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (k == 1) return std::vector<std::uint32_t>(n, 0);

  constexpr int kRestarts = 8;
  std::vector<std::uint32_t> best;
  std::int64_t best_cut = 0;
  double best_imbalance = 0.0;
  for (int attempt = 0; attempt < kRestarts; ++attempt) {
    auto candidate = grow_once(g, k, rng);
    refine(g, k, candidate, imbalance_limit, refinement_passes, rng);
    const std::int64_t cut = edge_cut(g, candidate);
    const double imb = imbalance(g, k, candidate);
    const bool feasible = imb <= imbalance_limit + 1e-9;
    const bool best_feasible = best_imbalance <= imbalance_limit + 1e-9;
    const bool better =
        best.empty() || (feasible && !best_feasible) ||
        (feasible == best_feasible &&
         (cut < best_cut || (cut == best_cut && imb < best_imbalance)));
    if (better) {
      best = std::move(candidate);
      best_cut = cut;
      best_imbalance = imb;
    }
  }
  return best;
}

/// Greedy boundary refinement: move boundary vertices to the neighboring
/// part with the best cut gain, respecting the balance constraint.
void refine(const Graph& g, std::uint32_t k, std::vector<std::uint32_t>& part,
            double imbalance_limit, int passes, Rng& rng) {
  const std::size_t n = g.num_vertices();
  if (k == 1 || n == 0) return;
  std::vector<std::int64_t> part_weight(k, 0);
  for (std::uint32_t v = 0; v < n; ++v) part_weight[part[v]] += g.vertex_weights[v];
  const std::int64_t total = g.total_vertex_weight();
  const auto max_weight = static_cast<std::int64_t>(
      imbalance_limit * static_cast<double>(total) / static_cast<double>(k));

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::int64_t> gain_to(k, 0);
  for (int pass = 0; pass < passes; ++pass) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    bool moved_any = false;
    for (std::uint32_t v : order) {
      const std::uint32_t home = part[v];
      // Connectivity of v to each adjacent part.
      std::int64_t internal = 0;
      std::vector<std::uint32_t> touched;
      for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const std::uint32_t p = part[g.adjacency[e]];
        if (p == home) {
          internal += g.edge_weights[e];
        } else {
          if (gain_to[p] == 0) touched.push_back(p);
          gain_to[p] += g.edge_weights[e];
        }
      }
      std::uint32_t best_part = home;
      std::int64_t best_gain = 0;
      for (std::uint32_t p : touched) {
        const std::int64_t gain = gain_to[p] - internal;
        const bool fits = part_weight[p] + g.vertex_weights[v] <= max_weight;
        const bool balances =
            gain == best_gain && part_weight[p] + g.vertex_weights[v] <
                                     part_weight[best_part];
        if (fits && (gain > best_gain || (best_part != home && balances))) {
          best_gain = gain;
          best_part = p;
        }
        gain_to[p] = 0;  // reset scratch
      }
      if (best_part != home && best_gain >= 0) {
        // Also allow zero-gain moves that strictly improve balance when the
        // home part is overweight.
        if (best_gain > 0 || part_weight[home] > max_weight) {
          part[v] = best_part;
          part_weight[home] -= g.vertex_weights[v];
          part_weight[best_part] += g.vertex_weights[v];
          moved_any = true;
        }
      }
    }
    if (!moved_any) break;
  }
}

}  // namespace

std::int64_t edge_cut(const Graph& g,
                      const std::vector<std::uint32_t>& assignment) {
  std::int64_t cut = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjacency[e];
      if (v < u && assignment[v] != assignment[u]) cut += g.edge_weights[e];
    }
  }
  return cut;
}

double imbalance(const Graph& g, std::uint32_t k,
                 const std::vector<std::uint32_t>& assignment) {
  if (k == 0 || g.num_vertices() == 0) return 1.0;
  std::vector<std::int64_t> w(k, 0);
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v)
    w[assignment[v]] += g.vertex_weights[v];
  const double avg =
      static_cast<double>(g.total_vertex_weight()) / static_cast<double>(k);
  const std::int64_t max_w = *std::max_element(w.begin(), w.end());
  return avg == 0.0 ? 1.0 : static_cast<double>(max_w) / avg;
}

PartitionResult partition_graph(const Graph& graph, std::uint32_t k,
                                const PartitionerConfig& config) {
  assert(k >= 1);
  PartitionResult result;
  const std::size_t n = graph.num_vertices();
  if (n == 0) return result;
  if (k == 1) {
    result.assignment.assign(n, 0);
    result.edge_cut = 0;
    result.achieved_imbalance = 1.0;
    return result;
  }

  Rng rng(config.seed);

  // --- Coarsening phase ---
  const std::size_t coarsest_target =
      std::max<std::size_t>(kCoarsestFloor,
                            static_cast<std::size_t>(k) * kCoarsestPerPart);
  std::vector<Level> levels;
  const Graph* current = &graph;
  while (current->num_vertices() > coarsest_target) {
    Level level = coarsen_once(*current, rng);
    // Stop when matching no longer shrinks the graph meaningfully (hubs in
    // power-law graphs limit matchings); grinding out sub-10% levels costs
    // full passes over the edges for little benefit.
    if (level.graph.num_vertices() >
        current->num_vertices() - current->num_vertices() / 10) {
      break;
    }
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }

  // --- Initial partitioning on the coarsest graph (multi-restart) ---
  std::vector<std::uint32_t> part = initial_partition(
      *current, k, config.imbalance, kRefinementPasses, rng);

  // --- Uncoarsening + refinement ---
  for (std::size_t i = levels.size(); i-- > 0;) {
    const Graph& fine =
        (i == 0) ? graph : levels[i - 1].graph;
    const std::vector<std::uint32_t>& projection = levels[i].fine_to_coarse;
    std::vector<std::uint32_t> fine_part(fine.num_vertices());
    for (std::uint32_t v = 0; v < fine.num_vertices(); ++v)
      fine_part[v] = part[projection[v]];
    part = std::move(fine_part);
    // Full sweeps on small levels; the huge fine levels only need a couple
    // of cleanup passes (the heavy lifting happened while coarse).
    const int passes =
        fine.num_vertices() > 50'000 ? 2 : kRefinementPasses;
    refine(fine, k, part, config.imbalance, passes, rng);
  }

  result.assignment = std::move(part);
  result.edge_cut = edge_cut(graph, result.assignment);
  result.achieved_imbalance = imbalance(graph, k, result.assignment);
  return result;
}

std::vector<std::uint32_t> remap_to_minimize_moves(
    const Graph& graph, std::uint32_t k, const std::vector<std::uint32_t>& prev,
    std::vector<std::uint32_t> next) {
  assert(prev.size() == next.size());
  // overlap[new][old] = vertex weight assigned to `new` now and `old` before.
  std::vector<std::vector<std::int64_t>> overlap(
      k, std::vector<std::int64_t>(k, 0));
  for (std::uint32_t v = 0; v < graph.num_vertices(); ++v)
    overlap[next[v]][prev[v]] += graph.vertex_weights[v];

  std::vector<std::uint32_t> relabel(k, UINT32_MAX);
  std::vector<bool> old_taken(k, false);
  // Greedy: repeatedly take the largest remaining overlap cell.
  for (std::uint32_t round = 0; round < k; ++round) {
    std::int64_t best = -1;
    std::uint32_t best_new = 0, best_old = 0;
    for (std::uint32_t np = 0; np < k; ++np) {
      if (relabel[np] != UINT32_MAX) continue;
      for (std::uint32_t op = 0; op < k; ++op) {
        if (old_taken[op]) continue;
        if (overlap[np][op] > best) {
          best = overlap[np][op];
          best_new = np;
          best_old = op;
        }
      }
    }
    relabel[best_new] = best_old;
    old_taken[best_old] = true;
  }
  for (auto& p : next) p = relabel[p];
  return next;
}

}  // namespace dynastar::partitioning
