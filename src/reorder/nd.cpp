// Nested dissection ordering (George 1973; Gilbert & Tarjan 1987).
//
// The graph is recursively bisected with the multilevel partitioner; a
// vertex separator is extracted from each bisection's cut, the two remaining
// parts are ordered first (recursively) and the separator's vertices are
// numbered last. Small leaf subgraphs are ordered with AMD, following the
// practice of METIS-style ND implementations.
#include <algorithm>
#include <deque>
#include <numeric>

#include "graph/graph.hpp"
#include "partition/graph_partitioner.hpp"
#include "pipeline/fork_join.hpp"
#include "reorder/reordering.hpp"

namespace ordo {
namespace {

// One recursion thread's scratch: the bisector, the storage of the node's
// subgraph (dead before the subtrees run, so one serves every depth), and
// per depth the vertex lists a node keeps while its subtrees run. `depths`
// is a deque so that a node's lists stay put while deeper nodes add theirs.
struct DissectScratch {
  struct Split {
    std::vector<index_t> left, right, middle;
  };
  GraphBisector bisector;
  GraphArrays arrays;
  std::deque<Split> depths;

  Split& at(std::size_t depth) {
    while (depths.size() <= depth) depths.emplace_back();
    return depths[depth];
  }
};

// Orders the subgraph of `g` induced by `vertices` (parent-graph ids),
// writing parent ids in elimination order to out[0, vertices.size()).
// `to_sub` maps every vertex of `g` to -1 on entry and on return; each node
// sets, then clears, only its own vertices' entries. Two subtrees may run at
// once: each writes its own segment of `out` and its own vertices' `to_sub`
// entries, and reads `to_sub` only at its vertices' neighbours, which the
// separators keep out of any concurrently running subtree.
void dissect(const Graph& g, const std::vector<index_t>& vertices,
             const ReorderOptions& options, std::uint64_t seed,
             std::vector<index_t>& to_sub, index_t* out,
             DissectScratch& scratch, std::size_t depth) {
  const index_t n = static_cast<index_t>(vertices.size());
  if (n == 0) return;
  poll_cancelled(options.cancel, "nd_ordering");

  // Build the induced subgraph.
  for (index_t i = 0; i < n; ++i) {
    to_sub[static_cast<std::size_t>(vertices[static_cast<std::size_t>(i)])] = i;
  }
  GraphArrays& arrays = scratch.arrays;
  arrays.adj_ptr.assign(1, 0);
  arrays.adj.clear();
  for (index_t i = 0; i < n; ++i) {
    const index_t v = vertices[static_cast<std::size_t>(i)];
    for (index_t u : g.neighbors(v)) {
      const index_t su = to_sub[static_cast<std::size_t>(u)];
      if (su >= 0) arrays.adj.push_back(su);
    }
    arrays.adj_ptr.push_back(static_cast<offset_t>(arrays.adj.size()));
  }
  for (const index_t v : vertices) to_sub[static_cast<std::size_t>(v)] = -1;
  Graph sub(n, std::move(arrays));

  // Leaf: order with AMD via a pattern-only CSR of the subgraph.
  if (n <= options.nd_leaf_size) {
    CsrArray<offset_t> row_ptr(sub.adj_ptr().begin(), sub.adj_ptr().end());
    CsrArray<index_t> cols(sub.adj().begin(), sub.adj().end());
    CsrArray<value_t> vals(cols.size(), 1.0);
    arrays = sub.release();
    const CsrMatrix leaf(n, n, std::move(row_ptr), std::move(cols),
                         std::move(vals));
    for (index_t i : amd_ordering(leaf)) {
      *out++ = vertices[static_cast<std::size_t>(i)];
    }
    return;
  }

  // Split; the subgraph's storage goes back to the scratch, or is freed with
  // the bisector's if the node is large, before the subtrees run.
  DissectScratch::Split& split = scratch.at(depth);
  split.left.clear();
  split.right.clear();
  split.middle.clear();
  {
    PartitionOptions popt;
    popt.seed = seed;
    popt.cancel = options.cancel;
    const std::vector<index_t>& part = scratch.bisector.bisect(sub, 0.5, popt);
    const std::vector<bool> separator =
        vertex_separator_from_bisection(sub, part);
    for (index_t i = 0; i < n; ++i) {
      const index_t v = vertices[static_cast<std::size_t>(i)];
      if (separator[static_cast<std::size_t>(i)]) {
        split.middle.push_back(v);
      } else if (part[static_cast<std::size_t>(i)] == 0) {
        split.left.push_back(v);
      } else {
        split.right.push_back(v);
      }
    }
  }
  if (n > kRetainedScratchVertices) {
    scratch.bisector = GraphBisector();
    sub = Graph();
  } else {
    arrays = sub.release();
  }

  // Degenerate split (e.g. the separator swallowed a whole side): stop
  // recursing and fall back to AMD-free sequential numbering to guarantee
  // termination.
  if (split.left.empty() && split.right.empty()) {
    std::copy(split.middle.begin(), split.middle.end(), out);
    return;
  }

  index_t* const right_out = out + split.left.size();
  pipeline::fork_join_with(
      split.left.size(), scratch,
      [&](DissectScratch& mine) {
        dissect(g, split.left, options, subtree_seed(seed, 0), to_sub, out,
                mine, &mine == &scratch ? depth + 1 : 0);
      },
      [&](DissectScratch& mine) {
        dissect(g, split.right, options, subtree_seed(seed, 1), to_sub,
                right_out, mine, depth + 1);
      });
  std::copy(split.middle.begin(), split.middle.end(),
            right_out + split.right.size());
}

}  // namespace

Permutation nd_ordering(const CsrMatrix& a, const ReorderOptions& options) {
  require(a.is_square(), "nd_ordering: matrix must be square");
  const Graph g = Graph::from_matrix(a);
  std::vector<index_t> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), index_t{0});
  Permutation order(all.size());
  std::vector<index_t> to_sub(all.size(), -1);
  DissectScratch scratch;
  dissect(g, all, options, options.seed, to_sub, order.data(), scratch, 0);
  return order;
}

}  // namespace ordo
