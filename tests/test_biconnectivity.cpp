#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bridges/biconnectivity.hpp"
#include "bridges/cc_spanning.hpp"
#include "bridges/dfs_bridges.hpp"
#include "bridges/two_ecc.hpp"
#include "device/context.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "support/reference.hpp"

namespace emc::bridges {
namespace {

graph::EdgeList prepared(graph::EdgeList raw) {
  return graph::largest_component(graph::simplified(raw));
}

void expect_tv_matches_dfs(const device::Context& ctx,
                           const graph::EdgeList& g, const char* label) {
  const graph::Csr csr = build_csr(ctx, g);
  const BiconnectivityResult tv = biconnectivity_tv(ctx, g);
  const BiconnectivityResult dfs = biconnectivity_dfs(g, csr);
  ASSERT_TRUE(same_block_partition(tv.edge_block, dfs.edge_block))
      << label << ": block partitions differ";
  ASSERT_EQ(tv.num_blocks, dfs.num_blocks) << label;
  ASSERT_EQ(tv.is_articulation, dfs.is_articulation) << label;
}

class BiconnParam : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, BiconnParam, ::testing::Values(1u, 4u));

TEST_P(BiconnParam, SingleEdge) {
  graph::EdgeList g;
  g.num_nodes = 2;
  g.edges = {{0, 1}};
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 1u);
  EXPECT_EQ(result.is_articulation,
            (std::vector<std::uint8_t>{0, 0}));
  expect_tv_matches_dfs(ctx_, g, "single-edge");
}

TEST_P(BiconnParam, PathEveryInternalNodeIsArticulation) {
  const auto g = gen::path_graph(50);
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 49u);  // every edge its own block
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(result.is_articulation[v], v != 0 && v != 49) << v;
  }
  expect_tv_matches_dfs(ctx_, g, "path");
}

TEST_P(BiconnParam, CycleIsOneBlock) {
  const auto g = gen::cycle_graph(60);
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 1u);
  for (NodeId v = 0; v < 60; ++v) EXPECT_EQ(result.is_articulation[v], 0);
  expect_tv_matches_dfs(ctx_, g, "cycle");
}

TEST_P(BiconnParam, TwoTrianglesSharingAVertex) {
  // Classic articulation example: blocks {0,1,2} and {2,3,4} share node 2.
  graph::EdgeList g;
  g.num_nodes = 5;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}};
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 2u);
  EXPECT_EQ(result.is_articulation,
            (std::vector<std::uint8_t>{0, 0, 1, 0, 0}));
  EXPECT_EQ(result.edge_block[0], result.edge_block[1]);
  EXPECT_EQ(result.edge_block[1], result.edge_block[2]);
  EXPECT_EQ(result.edge_block[3], result.edge_block[4]);
  EXPECT_NE(result.edge_block[0], result.edge_block[3]);
  expect_tv_matches_dfs(ctx_, g, "bowtie");
}

TEST_P(BiconnParam, BridgeEndpointsAreArticulationsWhenInternal) {
  // Two triangles joined by a path of two bridges through node 6.
  graph::EdgeList g;
  g.num_nodes = 7;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 6}, {6, 3}};
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 4u);  // 2 triangles + 2 bridge blocks
  EXPECT_EQ(result.is_articulation,
            (std::vector<std::uint8_t>{0, 0, 1, 1, 0, 0, 1}));
  expect_tv_matches_dfs(ctx_, g, "dumbbell");
}

TEST_P(BiconnParam, ParallelEdgesFormTheirOwnBlock) {
  graph::EdgeList g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {0, 1}, {1, 2}};
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 2u);
  EXPECT_EQ(result.edge_block[0], result.edge_block[1]);
  EXPECT_NE(result.edge_block[0], result.edge_block[2]);
  EXPECT_EQ(result.is_articulation,
            (std::vector<std::uint8_t>{0, 1, 0}));
  expect_tv_matches_dfs(ctx_, g, "parallel");
}

TEST_P(BiconnParam, StarBlocksArePendantEdges) {
  graph::EdgeList g;
  g.num_nodes = 30;
  for (NodeId v = 1; v < 30; ++v) g.edges.push_back({0, v});
  const auto result = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(result.num_blocks, 29u);
  EXPECT_EQ(result.is_articulation[0], 1);
  for (NodeId v = 1; v < 30; ++v) EXPECT_EQ(result.is_articulation[v], 0);
  expect_tv_matches_dfs(ctx_, g, "star");
}

TEST_P(BiconnParam, RandomGraphSweepMatchesDfs) {
  for (const double density : {1.05, 1.5, 3.0}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto g = prepared(gen::er_graph(
          300, static_cast<std::size_t>(300 * density), seed * 13));
      if (g.num_nodes < 3) continue;
      expect_tv_matches_dfs(ctx_, g, "er-sweep");
    }
  }
}

TEST_P(BiconnParam, RoadAndKronClasses) {
  expect_tv_matches_dfs(
      ctx_, prepared(gen::road_graph(20, 20, 0.7, 0.05, 2)), "road");
  expect_tv_matches_dfs(ctx_, prepared(gen::kron_graph(8, 3, 3)), "kron");
}

TEST_P(BiconnParam, BlocksRefineBridges) {
  // A bridge is exactly an edge that forms a singleton block that is also
  // a cut: cross-check edge_block against the bridge finder.
  const auto g = prepared(gen::er_graph(400, 450, 21));
  const graph::Csr csr = build_csr(ctx_, g);
  const auto mask = find_bridges_dfs(csr);
  const auto bic = biconnectivity_tv(ctx_, g);
  // Count members of each block.
  std::vector<std::size_t> block_size;
  std::vector<NodeId> labels = bic.edge_block;
  std::set<NodeId> distinct(labels.begin(), labels.end());
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    std::size_t members = 0;
    for (std::size_t f = 0; f < g.edges.size(); ++f) {
      members += labels[f] == labels[e];
    }
    // bridge <=> singleton block
    ASSERT_EQ(mask[e] == 1, members == 1) << "edge " << e;
    if (g.edges.size() > 2000) break;  // quadratic guard
  }
  EXPECT_EQ(distinct.size(), bic.num_blocks);
}

TEST(Biconnectivity, DfsBaselineOnDisconnectedInput) {
  // The DFS baseline tolerates multiple components (TV requires connected).
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}};
  const device::Context ctx(1);
  const auto result = biconnectivity_dfs(g, build_csr(ctx, g));
  EXPECT_EQ(result.num_blocks, 2u);
  EXPECT_EQ(result.is_articulation,
            (std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0}));
}

// --------------------------------------------- dynamic-path adversarials
//
// The batch-dynamic subsystem (src/dynamic) feeds these shapes to the
// static algorithms on every rebuild; pin them down standalone.

/// True iff the two label arrays split the nodes into the same classes.
bool same_partition(const std::vector<NodeId>& a,
                    const std::vector<NodeId>& b) {
  if (a.size() != b.size()) return false;
  std::map<NodeId, NodeId> a_to_b, b_to_a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a_to_b.emplace(a[v], b[v]).first->second != b[v]) return false;
    if (b_to_a.emplace(b[v], a[v]).first->second != a[v]) return false;
  }
  return true;
}

/// The generator suite raw (disconnected, with isolated nodes and parallel
/// pairs), plus hand-made shapes whose only cycles are parallel pairs.
std::vector<std::pair<std::string, graph::EdgeList>> two_ecc_inputs() {
  std::vector<std::pair<std::string, graph::EdgeList>> inputs = {
      {"kron", gen::kron_graph(9, 4, 1)},
      {"social", gen::social_graph(9, 3, 2)},
      {"road", gen::road_graph(25, 25, 0.65, 0.05, 3)},
      {"er", gen::er_graph(400, 380, 4)},
      {"cycle", gen::cycle_graph(100)},
      {"path", gen::path_graph(50)},
  };
  // A path with every other edge doubled: the doubled edges are never
  // bridges, the single ones always are.
  graph::EdgeList doubled = gen::path_graph(40);
  for (NodeId v = 0; v + 1 < 40; v += 2) doubled.edges.push_back({v + 1, v});
  inputs.emplace_back("doubled-path", doubled);
  // Two triangles and an isolated node, the triangles joined by a parallel
  // pair: one 2-ecc of six nodes.
  graph::EdgeList joined;
  joined.num_nodes = 7;
  joined.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                  {5, 3}, {2, 3}, {3, 2}};
  inputs.emplace_back("joined-triangles", joined);
  graph::EdgeList edgeless;
  edgeless.num_nodes = 5;
  inputs.emplace_back("edgeless", edgeless);
  return inputs;
}

TEST_P(BiconnParam, ForestTwoEccMatchesReferenceOracle) {
  for (const auto& [label, g] : two_ecc_inputs()) {
    const test_support::ReferenceOracle ref(ctx_, g);
    const SpanningForest forest = cc_spanning_forest(ctx_, g);
    const auto labels = two_edge_components(
        ctx_, g, forest, find_bridges_dfs(build_csr(ctx_, g)));
    ASSERT_TRUE(same_partition(labels, ref.comp)) << label;
    // Every label is its class's smallest node id, as a CC labeling of
    // the bridgeless graph would assign.
    for (std::size_t v = 0; v < labels.size(); ++v) {
      ASSERT_LE(labels[v], static_cast<NodeId>(v)) << label;
      ASSERT_EQ(labels[labels[v]], labels[v]) << label;
    }
  }
}

TEST(BiconnectivityAdversarial, TwoEccOnEdgelessGraph) {
  // An update batch that erases everything leaves an edgeless snapshot.
  const device::Context ctx(1);
  graph::EdgeList g;
  g.num_nodes = 4;
  const auto labels = two_edge_components(ctx, g, cc_spanning_forest(ctx, g),
                                          BridgeMask{});
  ASSERT_EQ(labels.size(), 4u);
  const std::set<NodeId> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 4u);  // all singletons
}

TEST(BiconnectivityAdversarial, TwoEccAcrossConnectingInsert) {
  // Disconnected graph gaining a connecting edge: the new edge is a bridge,
  // so the 2ecc partition must not merge across it.
  const device::Context ctx(2);
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}};
  const graph::Csr before = build_csr(ctx, g);
  const auto labels_before = two_edge_components(
      ctx, g, cc_spanning_forest(ctx, g), find_bridges_dfs(before));
  EXPECT_EQ(labels_before[0], labels_before[2]);
  EXPECT_NE(labels_before[0], labels_before[3]);

  g.edges.push_back({2, 3});  // the connecting insert
  const auto mask = find_bridges_dfs(build_csr(ctx, g));
  EXPECT_EQ(count_bridges(mask), 1u);
  EXPECT_EQ(mask[6], 1);
  const auto labels_after =
      two_edge_components(ctx, g, cc_spanning_forest(ctx, g), mask);
  EXPECT_NE(labels_after[2], labels_after[3]);
  EXPECT_EQ(labels_after[0], labels_after[2]);
  EXPECT_EQ(labels_after[3], labels_after[5]);
}

TEST_P(BiconnParam, LosesAllBridgesAfterInsert) {
  // A path (every edge a bridge, every internal node an articulation)
  // closed into a cycle by one insert: no bridges, no articulations, one
  // block. Both the blocks and the 2ecc partition must collapse.
  graph::EdgeList g = gen::path_graph(64);
  const auto mask_before = find_bridges_dfs(build_csr(ctx_, g));
  EXPECT_EQ(count_bridges(mask_before), 63u);

  g.edges.push_back({63, 0});
  const auto mask_after = find_bridges_dfs(build_csr(ctx_, g));
  EXPECT_EQ(count_bridges(mask_after), 0u);
  const auto bic = biconnectivity_tv(ctx_, g);
  EXPECT_EQ(bic.num_blocks, 1u);
  for (const auto a : bic.is_articulation) EXPECT_EQ(a, 0);
  const auto labels =
      two_edge_components(ctx_, g, cc_spanning_forest(ctx_, g), mask_after);
  const std::set<NodeId> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 1u);
  expect_tv_matches_dfs(ctx_, g, "closed-path");
}

TEST_P(BiconnParam, AllDuplicateBatchShape) {
  // An all-duplicate insert batch leaves the snapshot a simple graph, but
  // the same edges may also arrive as a raw multigraph; the two forms must
  // produce the same block partition sizes.
  graph::EdgeList multi;
  multi.num_nodes = 4;
  multi.edges = {{0, 1}, {1, 0}, {1, 2}, {1, 2}, {2, 3}};
  const auto simple = graph::canonicalize(ctx_, multi);
  ASSERT_EQ(simple.edges.size(), 3u);
  const auto bic_multi = biconnectivity_tv(ctx_, multi);
  const auto bic_simple = biconnectivity_tv(ctx_, simple);
  // Multigraph: each parallel pair is a 2-cycle block, plus the 2-3 pendant
  // edge. Simple form: a path of 3 pendant blocks. Both have 3 blocks.
  EXPECT_EQ(bic_multi.num_blocks, 3u);
  EXPECT_EQ(bic_simple.num_blocks, 3u);
  expect_tv_matches_dfs(ctx_, multi, "multi");
  expect_tv_matches_dfs(ctx_, simple, "simple");
}

TEST(Biconnectivity, SameBlockPartitionUtility) {
  EXPECT_TRUE(same_block_partition({1, 1, 2}, {7, 7, 9}));
  EXPECT_FALSE(same_block_partition({1, 1, 2}, {7, 8, 9}));
  EXPECT_FALSE(same_block_partition({1, 2, 2}, {7, 7, 9}));
  EXPECT_FALSE(same_block_partition({1}, {1, 2}));
  EXPECT_TRUE(same_block_partition({}, {}));
}

}  // namespace
}  // namespace emc::bridges
