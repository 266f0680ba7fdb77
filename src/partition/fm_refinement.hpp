// Fiduccia–Mattheyses (FM) boundary refinement for bisections.
//
// Each pass repeatedly moves the highest-gain movable vertex to the other
// side (respecting the balance constraint), locks it, and finally rolls back
// to the best prefix of moves seen during the pass. Passes continue until no
// improvement is found or the pass limit is reached. Gain of moving v is
// (weight of v's edges crossing the cut) - (weight of its internal edges).
//
// A pass is seeded with the boundary (the vertices with a neighbour across
// the cut), and no pass scans the whole graph to find it: the caller hands
// the first pass a boundary, and each later pass's boundary is the last
// one's plus the neighbourhoods of the kept moves, filtered (DESIGN §24).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/gain_queue.hpp"

namespace ordo {

/// Balance constraint for a bisection: part 0's weight must stay within
/// [min_weight0, max_weight0].
struct BisectionBalance {
  std::int64_t min_weight0 = 0;
  std::int64_t max_weight0 = 0;
};

/// The window both bisectors give FM: part 0 may weigh `target_fraction`
/// of `total_weight`, give or take `tolerance` of that, rounded outward.
BisectionBalance make_balance(std::int64_t total_weight,
                              double target_fraction, double tolerance);

/// State an FM refiner reuses across its passes and calls. `boundary` is
/// the refiner's input and output: the boundary vertices of `part`, each
/// once, in any order.
struct FmScratch {
  FmGainQueue queue;
  std::vector<index_t> moves;
  std::vector<index_t> boundary;
  std::vector<index_t> seen;  // candidates of the next boundary
  std::vector<char> marked;   // all 0 between calls
  std::int64_t weight0 = 0;   // part 0's weight under the current `part`
};

/// Refines `part` (0/1 per vertex) in place, seeding the first pass from
/// `scratch.boundary`, which must list the boundary of `part`; on return it
/// lists the boundary of the refined `part`. Returns the call's totals
/// (the cut improvement, old cut - new cut, is always >= 0).
FmTally fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                            const BisectionBalance& balance, int max_passes,
                            FmScratch& scratch);

/// Refines `part` in place from scratch, finding its boundary by a scan.
/// Returns the cut improvement.
std::int64_t fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes);

/// True when v has a neighbour on the other side of `part`.
bool on_boundary(const Graph& g, const std::vector<index_t>& part, index_t v);

/// Replaces `out` with the boundary vertices of `part`, in id order.
void collect_boundary(const Graph& g, const std::vector<index_t>& part,
                      std::vector<index_t>& out);

/// Gain of moving vertex v to the opposite side under partition `part`.
std::int64_t fm_move_gain(const Graph& g, const std::vector<index_t>& part,
                          index_t v);

}  // namespace ordo
