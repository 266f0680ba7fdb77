// Heap allocations of small bisections. Recursive bisection to 128 parts
// makes thousands of bisections of 96 vertices or fewer, so a bisection's
// fixed cost matters: once a bisector's scratch has grown to its inputs,
// bisecting them again must not call operator new at all.
//
// This binary replaces the global operator new to count calls, which is
// why it is separate from ordo_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "corpus/generators.hpp"
#include "partition/coarsening.hpp"
#include "partition/graph_partitioner.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "test_util.hpp"

namespace {
// Relaxed: a plain event count, read on the thread that made the calls.
std::atomic<long> news{0};
}  // namespace

void* operator new(std::size_t size) {
  news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_symmetric;

long allocations() { return news.load(std::memory_order_relaxed); }

// Graphs of at most 96 vertices (PartitionOptions::coarsen_to), so none
// is coarsened: unit-weight meshes, an R-MAT and a random graph, and a
// weighted coarse level of a larger mesh.
std::vector<Graph> small_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(Graph::from_matrix(grid_laplacian_2d(8, 8)));
  graphs.push_back(Graph::from_matrix(grid_laplacian_2d(9, 10)));
  graphs.push_back(Graph::from_matrix(gen_rmat(6, 8, 0.57, 0.19, 0.19, 3)));
  graphs.push_back(Graph::from_matrix(random_symmetric(96, 4.0, 7)));
  graphs.push_back(
      coarsen_once(Graph::from_matrix(grid_laplacian_2d(12, 12)), 3).graph);
  return graphs;
}

TEST(SmallBisection, SteadyStateGraphBisectionAllocatesNothing) {
  const std::vector<Graph> graphs = small_graphs();
  ASSERT_TRUE(graphs.back().has_weights());
  GraphBisector bisector;
  auto round = [&] {
    for (const Graph& g : graphs) {
      for (const double fraction : {0.5, 3.0 / 7.0}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          PartitionOptions options;
          options.seed = seed;
          bisector.bisect(g, fraction, options);
        }
      }
    }
  };
  for (const Graph& g : graphs) {
    ASSERT_LE(g.num_vertices(), PartitionOptions{}.coarsen_to);
  }
  round();  // grows the scratch
  const long before = allocations();
  round();
  EXPECT_EQ(allocations() - before, 0);
}

TEST(SmallBisection, SteadyStateHypergraphBisectionAllocatesNothing) {
  std::vector<Hypergraph> hypergraphs;
  for (const CsrMatrix& a :
       {grid_laplacian_2d(8, 8), gen_rmat(6, 8, 0.57, 0.19, 0.19, 3),
        random_symmetric(96, 4.0, 7)}) {
    hypergraphs.push_back(Hypergraph::column_net(a));
  }
  HypergraphBisector bisector;
  auto round = [&] {
    for (const Hypergraph& h : hypergraphs) {
      for (const double fraction : {0.5, 3.0 / 7.0}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          PartitionOptions options;
          options.seed = seed;
          bisector.bisect(h, fraction, options);
        }
      }
    }
  };
  round();
  const long before = allocations();
  round();
  EXPECT_EQ(allocations() - before, 0);
}

// The counter sees allocations at all: a fresh bisector's first call makes
// many, as a fresh scratch must grow.
TEST(SmallBisection, FreshBisectorAllocates) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(8, 8));
  const long before = allocations();
  GraphBisector bisector;
  bisector.bisect(g, 0.5, PartitionOptions{});
  EXPECT_GT(allocations() - before, 10);
}

}  // namespace
}  // namespace ordo
