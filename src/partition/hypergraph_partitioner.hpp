// Multilevel k-way hypergraph partitioner (PaToH stand-in).
//
// Same multilevel shape as the graph partitioner, adapted to hypergraphs:
// heavy-connectivity matching for coarsening, BFS growing for the initial
// bisection, and FM refinement under the **cut-net** metric (a net counts
// toward the objective when its pins land in more than one part), which is
// the PaToH objective the paper's HP ordering uses. k-way partitions come
// from the same recursive-bisection driver as the graph partitioner's
// (kway.cpp), with one part count where GP passes six: only the bisector
// below, which it calls at every node, is the hypergraph's own.
#pragma once

#include <array>

#include "partition/fm_refinement.hpp"
#include "partition/hypergraph.hpp"
#include "partition/partitioning.hpp"

namespace ordo {

/// State the hypergraph FM refiner reuses across its passes and calls.
/// pins_in[e][p] counts the pins of net e in part p; it follows `part`
/// through every move and rollback instead of being recounted each pass.
/// `cut_nets` lists the nets with pins in both parts, each once, and
/// listed[e] says whether e is in that list.
struct HgFmScratch {
  std::vector<std::array<index_t, 2>> pins_in;
  FmGainQueue queue;
  std::vector<index_t> moves;
  std::vector<index_t> newly_boundary;
  std::vector<index_t> cut_nets;
  std::vector<char> listed;
  std::int64_t weight0 = 0;  // part 0's weight under the current `part`
};

/// FM refinement of a bisection under the cut-net metric, in place. Each
/// pass is seeded with the pins of the cut nets; the first pass finds them
/// while counting pins, and later passes update the list from the nets of
/// the kept moves. Returns the call's totals.
FmTally hypergraph_fm_refine(const Hypergraph& h, std::vector<index_t>& part,
                             const BisectionBalance& balance, int max_passes,
                             HgFmScratch& scratch);

/// One thread's scratch for hypergraph bisections: growing's frontier, the
/// FM state and the part arrays. Reused across calls, it allocates only to
/// grow, so once it has seen a hypergraph of n vertices and m nets,
/// bisecting one no larger that needs no coarsening (at most
/// options.coarsen_to vertices) makes no heap allocation (DESIGN §24).
class HypergraphBisector {
 public:
  /// The bisection bisect_hypergraph makes, as the part (0/1) of each
  /// vertex; valid until the next call.
  const std::vector<index_t>& bisect(const Hypergraph& h,
                                     double target_fraction,
                                     const PartitionOptions& options);

 private:
  HgFmScratch fm_;
  std::vector<char> queued_;
  std::vector<index_t> frontier_;
  std::vector<index_t> part_;
  std::vector<index_t> fine_part_;
};

/// One level of hypergraph coarsening: heavy-connectivity matching followed
/// by contraction. Nets reduced to fewer than two pins are dropped.
struct HypergraphCoarseLevel {
  Hypergraph hypergraph;
  std::vector<index_t> fine_to_coarse;
};
HypergraphCoarseLevel coarsen_hypergraph_once(const Hypergraph& h,
                                              std::uint64_t seed);

/// Bisects `h`, targeting `target_fraction` of the vertex weight in part 0,
/// minimizing cut nets.
PartitionResult bisect_hypergraph(const Hypergraph& h, double target_fraction,
                                  const PartitionOptions& options);

/// Partitions `h` into `num_parts` parts via recursive bisection.
PartitionResult partition_hypergraph(const Hypergraph& h, index_t num_parts,
                                     const PartitionOptions& options);

}  // namespace ordo
