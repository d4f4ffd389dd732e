// Workload graph and multilevel partitioner tests: balance constraint,
// edge-cut quality, determinism, remapping, and dynamic graph maintenance.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "partitioning/graph.h"
#include "partitioning/partitioner.h"
#include "workloads/social_graph.h"

namespace dynastar::partitioning {
namespace {

/// Two dense clusters joined by one weak edge.
Graph two_cluster_graph(std::uint32_t per_cluster) {
  GraphBuilder builder(per_cluster * 2);
  for (std::uint32_t i = 0; i < per_cluster; ++i) {
    for (std::uint32_t j = i + 1; j < per_cluster; ++j) {
      builder.add_edge(i, j, 10);
      builder.add_edge(per_cluster + i, per_cluster + j, 10);
    }
  }
  builder.add_edge(0, per_cluster, 1);  // weak bridge
  return builder.build();
}

TEST(Partitioner, SeparatesObviousClusters) {
  auto graph = two_cluster_graph(16);
  auto result = partition_graph(graph, 2);
  EXPECT_EQ(result.edge_cut, 1);  // only the bridge is cut
  // Every cluster lands wholly in one part.
  for (std::uint32_t v = 1; v < 16; ++v)
    EXPECT_EQ(result.assignment[v], result.assignment[0]);
  for (std::uint32_t v = 17; v < 32; ++v)
    EXPECT_EQ(result.assignment[v], result.assignment[16]);
  EXPECT_NE(result.assignment[0], result.assignment[16]);
}

TEST(Partitioner, RespectsBalanceConstraint) {
  // Power-law graph: hard to balance; the 20% constraint must hold.
  auto social = workloads::generate_social_graph(2000, 4, 3);
  GraphBuilder builder(2000);
  for (std::uint32_t u = 0; u < 2000; ++u)
    for (std::uint32_t f : social.followers[u]) builder.add_edge(u, f, 1);
  auto graph = builder.build();
  for (std::uint32_t k : {2u, 4u, 8u}) {
    PartitionerConfig config;
    config.imbalance = 1.20;
    auto result = partition_graph(graph, k, config);
    EXPECT_LE(result.achieved_imbalance, 1.25)
        << "k=" << k;  // small slack over the constraint
  }
}

TEST(Partitioner, BeatsRandomPlacementOnEdgeCut) {
  auto social = workloads::generate_social_graph(1500, 4, 9);
  GraphBuilder builder(1500);
  for (std::uint32_t u = 0; u < 1500; ++u)
    for (std::uint32_t f : social.followers[u]) builder.add_edge(u, f, 1);
  auto graph = builder.build();

  auto result = partition_graph(graph, 4);

  Rng rng(5);
  std::vector<std::uint32_t> random_assign(graph.num_vertices());
  for (auto& p : random_assign)
    p = static_cast<std::uint32_t>(rng.uniform(0, 3));
  const auto random_cut = edge_cut(graph, random_assign);
  // Preferential-attachment graphs have weak community structure (hubs
  // connect everything), so even METIS only cuts ~25-40% below random.
  EXPECT_LT(result.edge_cut, random_cut * 4 / 5)
      << "partitioner should clearly beat the random cut";
}

TEST(Partitioner, DeterministicGivenSeed) {
  auto graph = two_cluster_graph(32);
  PartitionerConfig config;
  config.seed = 77;
  auto a = partition_graph(graph, 4, config);
  auto b = partition_graph(graph, 4, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(Partitioner, TrivialCases) {
  Graph empty;
  EXPECT_TRUE(partition_graph(empty, 4).assignment.empty());

  GraphBuilder one(1);
  auto single = partition_graph(one.build(), 4);
  ASSERT_EQ(single.assignment.size(), 1u);

  auto graph = two_cluster_graph(8);
  auto k1 = partition_graph(graph, 1);
  EXPECT_EQ(k1.edge_cut, 0);
  for (auto p : k1.assignment) EXPECT_EQ(p, 0u);
}

TEST(Partitioner, MorePartsThanVertices) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 1);
  auto result = partition_graph(builder.build(), 8);
  ASSERT_EQ(result.assignment.size(), 3u);
  for (auto p : result.assignment) EXPECT_LT(p, 8u);
}

TEST(Partitioner, RemapMinimizesMoves) {
  auto graph = two_cluster_graph(16);
  auto result = partition_graph(graph, 2);
  // Build a "previous" assignment identical but with labels flipped.
  std::vector<std::uint32_t> prev = result.assignment;
  for (auto& p : prev) p ^= 1u;
  auto remapped = remap_to_minimize_moves(graph, 2, prev, result.assignment);
  // After relabeling, the new assignment matches the previous exactly.
  EXPECT_EQ(remapped, prev);
}

TEST(Partitioner, RemapIsPermutation) {
  auto social = workloads::generate_social_graph(500, 3, 4);
  GraphBuilder builder(500);
  for (std::uint32_t u = 0; u < 500; ++u)
    for (std::uint32_t f : social.followers[u]) builder.add_edge(u, f, 1);
  auto graph = builder.build();
  auto result = partition_graph(graph, 4);
  Rng rng(9);
  std::vector<std::uint32_t> prev(500);
  for (auto& p : prev) p = static_cast<std::uint32_t>(rng.uniform(0, 3));
  auto remapped = remap_to_minimize_moves(graph, 4, prev, result.assignment);
  // Edge-cut must be label-invariant.
  EXPECT_EQ(edge_cut(graph, remapped), result.edge_cut);
}

// --- WorkloadGraph ---

TEST(WorkloadGraph, AccumulatesAndCompacts) {
  WorkloadGraph graph;
  graph.add_edge(10, 20, 3);
  graph.add_edge(20, 30, 1);
  graph.add_edge(10, 20, 2);  // reinforce
  graph.add_vertex(40, 5);
  EXPECT_EQ(graph.num_vertices(), 4u);
  EXPECT_EQ(graph.num_edges(), 2u);

  auto compact = graph.compact();
  EXPECT_EQ(compact.graph.num_vertices(), 4u);
  EXPECT_EQ(compact.graph.num_edges(), 2u);
  // ids sorted: 10, 20, 30, 40.
  EXPECT_EQ(compact.ids, (std::vector<std::uint64_t>{10, 20, 30, 40}));
  // Edge {10,20} has weight 5.
  const auto& g = compact.graph;
  bool found = false;
  for (std::size_t e = g.xadj[0]; e < g.xadj[1]; ++e) {
    if (g.adjacency[e] == 1) {
      EXPECT_EQ(g.edge_weights[e], 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadGraph, RemoveVertexDropsEdges) {
  WorkloadGraph graph;
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  graph.add_edge(1, 3);
  graph.remove_vertex(2);
  EXPECT_EQ(graph.num_vertices(), 2u);
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_FALSE(graph.contains(2));
}

TEST(WorkloadGraph, SelfEdgeCountsAsVertexWeight) {
  WorkloadGraph graph;
  graph.add_edge(7, 7, 3);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_TRUE(graph.contains(7));
}

// Parameterized: partitioner quality on varying graph shapes.
struct ShapeParam {
  std::uint32_t users;
  std::uint32_t edges_per_user;
  std::uint32_t k;
};

class PartitionerShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(PartitionerShapes, BalancedAndBetterThanRandom) {
  const auto param = GetParam();
  auto social =
      workloads::generate_social_graph(param.users, param.edges_per_user, 13);
  GraphBuilder builder(param.users);
  for (std::uint32_t u = 0; u < param.users; ++u)
    for (std::uint32_t f : social.followers[u]) builder.add_edge(u, f, 1);
  auto graph = builder.build();

  auto result = partition_graph(graph, param.k);
  EXPECT_LE(result.achieved_imbalance, 1.3);

  Rng rng(1);
  std::vector<std::uint32_t> random_assign(graph.num_vertices());
  for (auto& p : random_assign)
    p = static_cast<std::uint32_t>(rng.uniform(0, param.k - 1));
  EXPECT_LT(result.edge_cut, edge_cut(graph, random_assign));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionerShapes,
    ::testing::Values(ShapeParam{200, 2, 2}, ShapeParam{500, 3, 4},
                      ShapeParam{1000, 5, 8}, ShapeParam{2000, 8, 4},
                      ShapeParam{3000, 2, 16}));

}  // namespace
}  // namespace dynastar::partitioning
