// Common partitioning types and quality metrics shared by the graph and
// hypergraph partitioners.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// Options controlling the multilevel partitioners.
struct PartitionOptions {
  /// Number of parts to produce.
  index_t num_parts = 2;
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

/// Ratio of the heaviest part's vertex weight to the average part weight.
double compute_partition_imbalance(const Graph& g,
                                   const std::vector<index_t>& part,
                                   index_t num_parts);

/// Per-part vertex weights.
std::vector<std::int64_t> partition_weights(const Graph& g,
                                            const std::vector<index_t>& part,
                                            index_t num_parts);

}  // namespace ordo
