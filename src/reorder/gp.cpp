// Graph-partitioning-based ordering (the study's GP).
//
// The matrix graph (A + Aᵀ) is partitioned into k parts with the multilevel
// edge-cut partitioner using an unweighted graph — which balances the number
// of rows per part, exactly the configuration Section 3.3 uses with METIS —
// and rows/columns are then grouped by part id, preserving the original
// relative order within each part. Several part counts (the study's one per
// machine core count) come from one shared recursive-bisection tree.
#include <algorithm>

#include "graph/graph.hpp"
#include "partition/graph_partitioner.hpp"
#include "reorder/reordering.hpp"

namespace ordo {

std::vector<Permutation> gp_orderings(const CsrMatrix& a,
                                      const std::vector<index_t>& part_counts,
                                      const ReorderOptions& options) {
  require(a.is_square(), "gp_orderings: matrix must be square");
  Graph g = Graph::from_matrix(a);
  if (options.gp_nnz_weighted) {
    // Weight vertices by row nonzero count: the partitioner then balances
    // nonzeros per part instead of rows (the alternative of Section 3.3).
    std::vector<index_t> vweights(static_cast<std::size_t>(g.num_vertices()));
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      vweights[static_cast<std::size_t>(v)] =
          std::max<index_t>(1, static_cast<index_t>(a.row_nonzeros(v)));
    }
    CsrArray<offset_t> adj_ptr(g.adj_ptr().begin(), g.adj_ptr().end());
    CsrArray<index_t> adj(g.adj().begin(), g.adj().end());
    g = Graph(g.num_vertices(), std::move(adj_ptr), std::move(adj),
              std::move(vweights), {});
  }

  PartitionOptions popt;
  popt.seed = options.seed;
  popt.cancel = options.cancel;
  std::vector<index_t> capped;
  for (index_t parts : part_counts) {
    capped.push_back(
        std::min<index_t>(parts, std::max<index_t>(1, g.num_vertices())));
  }

  std::vector<Permutation> perms;
  for (const PartitionResult& partition : partition_graph(g, capped, popt)) {
    perms.push_back(group_by_part(partition));
  }
  return perms;
}

Permutation gp_ordering(const CsrMatrix& a, const ReorderOptions& options) {
  return std::move(gp_orderings(a, {options.gp_parts}, options).front());
}

}  // namespace ordo
