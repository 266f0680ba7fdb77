// Multilevel k-way graph partitioner (METIS stand-in).
//
// Bisection pipeline: heavy-edge-matching coarsening until the graph is
// small, greedy graph-growing initial bisection, then FM boundary refinement
// at every level while projecting back up. k-way partitions are produced by
// recursive bisection with proportional weight targets, so k need not be a
// power of two (the study partitions into 16, 32, 48, 64, 72 or 128 parts to
// match core counts, all six from one shared bisection tree). The recursion
// and the checked results are in kway.cpp, shared with the hypergraph
// partitioner; this file's bisector is what it calls at every node.
#pragma once

#include "graph/graph.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/initial_partition.hpp"
#include "partition/partitioning.hpp"

namespace ordo {

/// One thread's scratch for graph bisections: greedy growing's trials,
/// pseudo-peripheral search and frontier, FM's queue and boundary lists,
/// and the part arrays. Reused across calls, it allocates only to grow, so
/// once it has seen a graph of n vertices, bisecting a graph of at most n
/// vertices that needs no coarsening (at most options.coarsen_to) makes no
/// heap allocation (DESIGN §24).
class GraphBisector {
 public:
  /// The bisection bisect_graph makes, as the part (0/1) of each vertex;
  /// valid until the next call.
  const std::vector<index_t>& bisect(const Graph& g, double target_fraction,
                                     const PartitionOptions& options);

 private:
  GrowScratch grow_;
  FmScratch fm_;
  std::vector<index_t> part_;
  std::vector<index_t> fine_part_;
  std::vector<index_t> coarse_boundary_;
};

/// Bisects `g`, putting approximately `target_fraction` of the total vertex
/// weight into part 0.
PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options);

/// Partitions `g` once per entry of `part_counts` via recursive bisection,
/// minimizing edge-cut under the balance constraint; result i has
/// part_counts[i] parts and is exactly what the one-element list
/// {part_counts[i]} gives. The counts share one recursive-bisection tree: a
/// node whose target fraction agrees across counts is bisected once, so the
/// study's six core counts {16, 32, 48, 64, 72, 128} cost 223 bisections
/// instead of 354.
std::vector<PartitionResult> partition_graph(
    const Graph& g, const std::vector<index_t>& part_counts,
    const PartitionOptions& options);

/// Extracts a vertex separator from a bisection: boundary vertices forming a
/// vertex cover of the cut edges, chosen greedily by cut-degree so the
/// separator stays small. Returns in_separator flags per vertex. Removing
/// the separator disconnects part 0 from part 1 — the property nested
/// dissection relies on.
std::vector<bool> vertex_separator_from_bisection(
    const Graph& g, const std::vector<index_t>& part);

}  // namespace ordo
