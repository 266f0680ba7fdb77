// Hypergraph-partitioning-based ordering (the study's HP).
//
// The column-net hypergraph of A (rows = vertices, columns = nets) is
// partitioned into 128 parts with the cut-net objective — the PaToH
// configuration of Section 3.3 — and rows are grouped by part id. The same
// permutation is applied to the columns, keeping the reordering symmetric.
#include <algorithm>

#include "partition/hypergraph.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "reorder/reordering.hpp"

namespace ordo {

Permutation hp_ordering(const CsrMatrix& a, const ReorderOptions& options) {
  require(a.is_square(), "hp_ordering: matrix must be square");
  const Hypergraph h = Hypergraph::column_net(a);

  const index_t parts = std::min<index_t>(
      options.hp_parts, std::max<index_t>(1, h.num_vertices()));
  PartitionOptions popt;
  popt.seed = options.seed;
  popt.cancel = options.cancel;
  return group_by_part(partition_hypergraph(h, parts, popt));
}

}  // namespace ordo
