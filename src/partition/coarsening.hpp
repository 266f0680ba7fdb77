// Coarsening phase of the multilevel graph partitioner.
//
// Heavy-edge matching (HEM): vertices are visited in a random order; each
// unmatched vertex is matched to the unmatched neighbour connected by the
// heaviest edge. Matched pairs are contracted into a single coarse vertex
// whose weight is the sum of the pair's weights; parallel edges are merged by
// summing their weights. This is the coarsening scheme of Karypis & Kumar's
// multilevel paradigm (the basis of METIS).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace ordo {

/// One level of the coarsening hierarchy.
struct CoarseLevel {
  Graph graph;                    ///< the coarse graph
  std::vector<index_t> fine_to_coarse;  ///< map from fine to coarse vertex ids
  /// The fine vertices of each coarse vertex, lower id first; the second is
  /// -1 when the first stayed unmatched.
  std::vector<std::pair<index_t, index_t>> coarse_to_fine;
};

/// Computes a heavy-edge matching. Returns match[v] = partner of v, or v
/// itself when v stays unmatched.
std::vector<index_t> heavy_edge_matching(const Graph& g, std::uint64_t seed);

/// Contracts a matching into the coarse graph.
CoarseLevel contract(const Graph& g, const std::vector<index_t>& match);

/// Convenience: one full coarsening step (match + contract).
CoarseLevel coarsen_once(const Graph& g, std::uint64_t seed);

}  // namespace ordo
