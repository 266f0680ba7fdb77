// Common partitioning types and quality metrics shared by the graph and
// hypergraph partitioners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/permutation.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// Options controlling the multilevel partitioners.
struct PartitionOptions {
  /// Allowed relative deviation of any part's weight from the average
  /// (0.05 => each part may weigh up to 1.05x the average).
  double imbalance_tolerance = 0.05;
  /// Coarsening stops once the graph has at most this many vertices.
  index_t coarsen_to = 96;
  /// Maximum FM refinement passes per level.
  int refine_passes = 8;
  /// Seed for tie-breaking and random visit orders.
  std::uint64_t seed = 1;
  /// Optional cooperative cancellation flag, polled once per bisection (see
  /// poll_cancelled in sparse/types.hpp). Null means not cancellable.
  const std::atomic<bool>* cancel = nullptr;
};

/// The seed of the subtree on `side` (0 left, 1 right) of a recursion node
/// whose own seed is `seed`. GP's and HP's k-way driver and ND's dissection
/// seed every node from its path, so no bisection depends on where or when
/// a sibling ran (DESIGN §20).
constexpr std::uint64_t subtree_seed(std::uint64_t seed, int side) {
  return seed * 6364136223846793005ULL + static_cast<std::uint64_t>(side + 1);
}

/// The recursive partitioners (GP, HP, ND) keep one bisector's scratch
/// across the nodes they bisect, so a small node allocates nothing. After a
/// node of more vertices than this is split, they free that scratch: a
/// root-sized block would otherwise stay live under every subtree.
inline constexpr index_t kRetainedScratchVertices = index_t{1} << 12;

/// A k-way partition assignment with its quality metrics.
struct PartitionResult {
  std::vector<index_t> part;  ///< part id in [0, num_parts) per vertex
  index_t num_parts = 0;
  std::int64_t cut = 0;     ///< edge-cut (graph) or cut-net count (hypergraph)
  double imbalance = 1.0;   ///< max part weight / average part weight
};

/// Sum of edge weights crossing between different parts.
std::int64_t compute_edge_cut(const Graph& g, const std::vector<index_t>& part);

/// Per-part vertex weights of a Graph or a Hypergraph.
template <typename Structure>
std::vector<std::int64_t> partition_weights(const Structure& s,
                                            const std::vector<index_t>& part,
                                            index_t num_parts) {
  std::vector<std::int64_t> weights(static_cast<std::size_t>(num_parts), 0);
  for (index_t v = 0; v < s.num_vertices(); ++v) {
    weights[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        s.vertex_weight(v);
  }
  return weights;
}

/// Ratio of the heaviest part's vertex weight to the average part weight,
/// for a Graph or a Hypergraph.
template <typename Structure>
double compute_partition_imbalance(const Structure& s,
                                   const std::vector<index_t>& part,
                                   index_t num_parts) {
  if (num_parts <= 0 || s.num_vertices() == 0) return 1.0;
  const auto weights = partition_weights(s, part, num_parts);
  const double average =
      static_cast<double>(s.total_vertex_weight()) / num_parts;
  const std::int64_t max_weight =
      *std::max_element(weights.begin(), weights.end());
  return average > 0 ? static_cast<double>(max_weight) / average : 1.0;
}

/// The vertices in order of part id, each part's in vertex order: the
/// stable counting sort GP and HP order rows by.
Permutation group_by_part(const PartitionResult& partition);

}  // namespace ordo
