// Tests for the graph substrate: construction, BFS and the
// pseudo-peripheral vertex heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "graph/graph.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::BfsResult;
using testing::degree_ordered_bfs;
using testing::grid_laplacian_2d;

// Breadth-first search from `start`, kept as a reference: the level
// (distance) of every vertex reachable from `start`, -1 for the others.
std::vector<index_t> bfs_levels(const Graph& g, index_t start) {
  std::vector<index_t> levels(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<index_t> queue;
  levels[static_cast<std::size_t>(start)] = 0;
  queue.push(start);
  while (!queue.empty()) {
    const index_t v = queue.front();
    queue.pop();
    for (index_t u : g.neighbors(v)) {
      if (levels[static_cast<std::size_t>(u)] < 0) {
        levels[static_cast<std::size_t>(u)] =
            levels[static_cast<std::size_t>(v)] + 1;
        queue.push(u);
      }
    }
  }
  return levels;
}

Graph path_graph(index_t n) {
  CsrArray<offset_t> ptr{0};
  CsrArray<index_t> adj;
  for (index_t v = 0; v < n; ++v) {
    if (v > 0) adj.push_back(v - 1);
    if (v + 1 < n) adj.push_back(v + 1);
    ptr.push_back(static_cast<offset_t>(adj.size()));
  }
  return Graph(n, std::move(ptr), std::move(adj));
}

TEST(Graph, FromMatrixDropsDiagonalAndSymmetrizes) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);  // unsymmetric entry
  coo.add(2, 2, 1.0);
  const Graph g = Graph::from_matrix(CsrMatrix::from_coo(coo));
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 1);  // only {0,1}
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, RejectsSelfLoopsAndBadAdjacency) {
  EXPECT_THROW(Graph(2, {0, 1, 2}, {0, 0}), invalid_argument_error);  // loop
  EXPECT_THROW(Graph(2, {0, 1, 2}, {5, 0}), invalid_argument_error);  // range
  EXPECT_THROW(Graph(2, {0, 1}, {1}), invalid_argument_error);  // ptr size
}

TEST(Bfs, LevelsOnPath) {
  const Graph g = path_graph(6);
  const auto levels = bfs_levels(g, 0);
  for (index_t v = 0; v < 6; ++v) {
    EXPECT_EQ(levels[static_cast<std::size_t>(v)], v);
  }
}

TEST(Bfs, UnreachableVerticesStayAtMinusOne) {
  CooMatrix coo(4, 4);
  coo.add_symmetric(0, 1, 1.0);
  coo.add_symmetric(2, 3, 1.0);
  const Graph g = Graph::from_matrix(CsrMatrix::from_coo(coo));
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], -1);
  EXPECT_EQ(levels[3], -1);
}

TEST(PseudoPeripheral, FindsPathEndpoint) {
  const Graph g = path_graph(31);
  // From the middle of a path, the heuristic must walk to an endpoint.
  const index_t v = pseudo_peripheral_vertex(g, 15);
  EXPECT_TRUE(v == 0 || v == 30) << "got " << v;
}

TEST(PseudoPeripheral, GridCornerish) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(9, 9));
  const index_t v = pseudo_peripheral_vertex(g, 4 * 9 + 4);  // center
  // The result must have grid eccentricity no less than starting from the
  // center (8); corners achieve 16.
  const auto levels = bfs_levels(g, v);
  const index_t ecc = *std::max_element(levels.begin(), levels.end());
  EXPECT_GE(ecc, 12);
}

// The degree-sorted definition the pseudo-peripheral search had before it
// dropped the sort: the first minimum-degree vertex, in Cuthill–McKee visit
// order, of the deepest level.
index_t sorted_pseudo_peripheral_vertex(const Graph& g, index_t seed) {
  index_t current = seed;
  BfsResult bfs = degree_ordered_bfs(g, current);
  for (int iteration = 0; iteration < 16; ++iteration) {
    index_t best = -1;
    for (index_t v : bfs.order) {
      if (bfs.levels[static_cast<std::size_t>(v)] == bfs.eccentricity &&
          (best < 0 || g.degree(v) < g.degree(best))) {
        best = v;
      }
    }
    BfsResult trial = degree_ordered_bfs(g, best);
    if (trial.eccentricity <= bfs.eccentricity) break;
    current = best;
    bfs = std::move(trial);
  }
  return current;
}

// Random, disconnected and tie-heavy graphs for the start-vertex tests.
std::vector<Graph> search_test_graphs() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    graphs.push_back(
        Graph::from_matrix(testing::random_symmetric(150, 3.0, seed)));
  }
  // Disconnected: two grids and isolated vertices.
  CooMatrix disconnected(300, 300);
  const CsrMatrix grid = grid_laplacian_2d(10, 10);
  for (index_t block = 0; block < 2; ++block) {
    for (index_t i = 0; i < grid.num_rows(); ++i) {
      for (index_t j : grid.row_cols(i)) {
        disconnected.add(block * 100 + i, block * 100 + j, 1.0);
      }
    }
  }
  for (index_t i = 200; i < 300; ++i) disconnected.add(i, i, 1.0);
  graphs.push_back(Graph::from_matrix(CsrMatrix::from_coo(disconnected)));
  // Tie-heavy: many deepest-level vertices of equal degree.
  CooMatrix cycle(40, 40);
  for (index_t i = 0; i < 40; ++i) cycle.add_symmetric(i, (i + 1) % 40, 1.0);
  graphs.push_back(Graph::from_matrix(CsrMatrix::from_coo(cycle)));
  CooMatrix bipartite(12, 12);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 5; j < 12; ++j) bipartite.add_symmetric(i, j, 1.0);
  }
  graphs.push_back(Graph::from_matrix(CsrMatrix::from_coo(bipartite)));
  graphs.push_back(Graph::from_matrix(grid_laplacian_2d(12, 7)));
  graphs.push_back(path_graph(17));
  return graphs;
}

TEST(PseudoPeripheral, MatchesDegreeSortedDefinition) {
  for (const Graph& g : search_test_graphs()) {
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(pseudo_peripheral_vertex(g, v),
                sorted_pseudo_peripheral_vertex(g, v))
          << "seed vertex " << v << " of " << g.num_vertices();
    }
  }
}

TEST(PeripheralSearch, ReusedScratchMatchesFreshSearches) {
  // One search object serves every seed, in a scrambled order, and each
  // run leaves the BFS of the vertex it returned, split at its levels.
  for (const Graph& g : search_test_graphs()) {
    PeripheralSearch search(g);
    for (index_t seed : random_permutation(g.num_vertices(), 7)) {
      const index_t start = search.run(seed);
      ASSERT_EQ(start, sorted_pseudo_peripheral_vertex(g, seed))
          << "seed vertex " << seed << " of " << g.num_vertices();
      const BfsResult bfs = degree_ordered_bfs(g, start);
      ASSERT_EQ(search.order().size(), bfs.order.size());
      EXPECT_EQ(search.order().front(), start);
      const auto starts = search.level_starts();
      ASSERT_EQ(starts.size(), static_cast<std::size_t>(bfs.eccentricity) + 2);
      EXPECT_EQ(starts.front(), 0);
      EXPECT_EQ(starts.back(), static_cast<offset_t>(bfs.order.size()));
      for (std::size_t level = 0; level + 1 < starts.size(); ++level) {
        ASSERT_LT(starts[level], starts[level + 1]);
        for (offset_t k = starts[level]; k < starts[level + 1]; ++k) {
          const index_t v = search.order()[static_cast<std::size_t>(k)];
          ASSERT_EQ(bfs.levels[static_cast<std::size_t>(v)],
                    static_cast<index_t>(level));
        }
      }
      EXPECT_EQ(search.eccentricity(), bfs.eccentricity);
    }
  }
}

TEST(Graph, WeightedAccessors) {
  Graph g(3, {0, 1, 2, 2}, {1, 0}, {5, 7, 2}, {3, 3});
  EXPECT_EQ(g.vertex_weight(1), 7);
  EXPECT_EQ(g.edge_weight(0), 3);
  EXPECT_EQ(g.total_vertex_weight(), 14);
  EXPECT_TRUE(g.has_weights());
}

}  // namespace
}  // namespace ordo
