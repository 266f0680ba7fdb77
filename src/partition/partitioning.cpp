#include "partition/partitioning.hpp"

#include <numeric>

namespace ordo {

std::int64_t compute_edge_cut(const Graph& g,
                              const std::vector<index_t>& part) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "compute_edge_cut: partition size mismatch");
  std::int64_t cut = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (part[static_cast<std::size_t>(v)] !=
          part[static_cast<std::size_t>(u)]) {
        cut += g.edge_weight(base + static_cast<offset_t>(k));
      }
    }
  }
  // Every undirected edge was visited from both endpoints.
  return cut / 2;
}

Permutation group_by_part(const PartitionResult& partition) {
  std::vector<offset_t> part_begin(
      static_cast<std::size_t>(partition.num_parts) + 1, 0);
  for (index_t p : partition.part) {
    part_begin[static_cast<std::size_t>(p) + 1]++;
  }
  std::partial_sum(part_begin.begin(), part_begin.end(), part_begin.begin());
  Permutation perm(partition.part.size());
  for (std::size_t v = 0; v < partition.part.size(); ++v) {
    perm[static_cast<std::size_t>(
        part_begin[static_cast<std::size_t>(partition.part[v])]++)] =
        static_cast<index_t>(v);
  }
  return perm;
}

}  // namespace ordo
