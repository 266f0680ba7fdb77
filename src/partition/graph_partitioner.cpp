#include "partition/graph_partitioner.hpp"

#include <limits>
#include <queue>
#include <utility>

#include "obs/obs.hpp"
#include "partition/coarsening.hpp"

namespace ordo {
namespace {

// Repairs a degenerate bisection (every vertex on one side). The FM balance
// window permits this on tiny graphs — floor(total * fraction * (1 - tol))
// reaches 0, so neither greedy growing nor refinement is forced to populate
// both sides — and a degenerate split makes the recursive callers (GP, ND)
// spin without progress. Moves the vertex whose weighted degree is smallest
// (the cheapest new cut), lowest id on ties, to the empty side.
void repair_degenerate_bisection(const Graph& g, std::vector<index_t>& part) {
  const index_t n = g.num_vertices();
  if (n < 2) return;
  index_t count0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) ++count0;
  }
  if (count0 != 0 && count0 != n) return;
  const index_t empty_side = count0 == 0 ? 0 : 1;
  index_t best = 0;
  std::int64_t best_degree = std::numeric_limits<std::int64_t>::max();
  for (index_t v = 0; v < n; ++v) {
    std::int64_t weighted_degree = 0;
    for (offset_t e = g.adj_ptr()[static_cast<std::size_t>(v)];
         e < g.adj_ptr()[static_cast<std::size_t>(v) + 1]; ++e) {
      weighted_degree += g.edge_weight(e);
    }
    if (weighted_degree < best_degree) {
      best_degree = weighted_degree;
      best = v;
    }
  }
  part[static_cast<std::size_t>(best)] = empty_side;
}

}  // namespace

const std::vector<index_t>& GraphBisector::bisect(
    const Graph& g, double target_fraction, const PartitionOptions& options) {
  require(g.num_vertices() > 0, "bisect_graph: empty graph");

  // Coarsening phase. Stop when the graph is small enough or when matching
  // stops shrinking the graph (< 10% reduction), which happens on graphs
  // with many unmatchable vertices (e.g. stars).
  std::vector<CoarseLevel> hierarchy;
  const Graph* current = &g;
  std::uint64_t seed = options.seed;
  {
    ORDO_SCOPE("partition/coarsen");
    while (current->num_vertices() > options.coarsen_to) {
      CoarseLevel level = coarsen_once(*current, seed++);
      if (level.graph.num_vertices() >
          static_cast<index_t>(0.9 * current->num_vertices())) {
        break;
      }
      hierarchy.push_back(std::move(level));
      current = &hierarchy.back().graph;
    }
  }
  ORDO_COUNTER_ADD("partition.gp.bisections", 1);
  ORDO_COUNTER_ADD("partition.gp.coarsen_levels",
                   static_cast<std::int64_t>(hierarchy.size()));

  // Initial bisection on the coarsest graph, refined in place.
  {
    ORDO_SCOPE("partition/initial");
    greedy_graph_growing_bisection(*current, target_fraction, seed, grow_,
                                   part_);
    collect_boundary(*current, part_, fm_.boundary);
    fm_refine_bisection(
        *current, part_,
        make_balance(current->total_vertex_weight(), target_fraction,
                     options.imbalance_tolerance),
        options.refine_passes, fm_);
  }

  // Uncoarsening: project the partition to each finer level and refine.
  {
    ORDO_SCOPE("partition/refine");
    for (std::size_t level = hierarchy.size(); level > 0; --level) {
      const Graph& fine = level >= 2 ? hierarchy[level - 2].graph : g;
      const CoarseLevel& coarse = hierarchy[level - 1];
      fine_part_.resize(static_cast<std::size_t>(fine.num_vertices()));
      for (index_t v = 0; v < fine.num_vertices(); ++v) {
        fine_part_[static_cast<std::size_t>(v)] =
            part_[static_cast<std::size_t>(
                coarse.fine_to_coarse[static_cast<std::size_t>(v)])];
      }
      part_.swap(fine_part_);
      // A fine vertex with a neighbour across the cut lies in a coarse
      // vertex with one, so the fine boundary is found among the
      // constituents of the coarse boundary.
      coarse_boundary_.swap(fm_.boundary);
      fm_.boundary.clear();
      for (const index_t c : coarse_boundary_) {
        const auto [first, second] =
            coarse.coarse_to_fine[static_cast<std::size_t>(c)];
        if (on_boundary(fine, part_, first)) fm_.boundary.push_back(first);
        if (second >= 0 && on_boundary(fine, part_, second)) {
          fm_.boundary.push_back(second);
        }
      }
      fm_refine_bisection(
          fine, part_,
          make_balance(fine.total_vertex_weight(), target_fraction,
                       options.imbalance_tolerance),
          options.refine_passes, fm_);
    }
  }

  repair_degenerate_bisection(g, part_);
  return part_;
}

std::vector<bool> vertex_separator_from_bisection(
    const Graph& g, const std::vector<index_t>& part) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "vertex_separator_from_bisection: partition size mismatch");
  const index_t n = g.num_vertices();
  std::vector<bool> in_separator(static_cast<std::size_t>(n), false);

  // Cut-degree per vertex: number of neighbours across the cut that are not
  // yet covered by a separator vertex.
  std::vector<index_t> cut_degree(static_cast<std::size_t>(n), 0);
  for (index_t v = 0; v < n; ++v) {
    for (index_t u : g.neighbors(v)) {
      if (part[static_cast<std::size_t>(u)] !=
          part[static_cast<std::size_t>(v)]) {
        cut_degree[static_cast<std::size_t>(v)]++;
      }
    }
  }

  // Greedy vertex cover of the cut edges: repeatedly add the vertex covering
  // the most uncovered cut edges. A lazy max-heap skips entries whose
  // recorded degree has gone stale.
  std::priority_queue<std::pair<index_t, index_t>> heap;
  for (index_t v = 0; v < n; ++v) {
    if (cut_degree[static_cast<std::size_t>(v)] > 0) {
      heap.emplace(cut_degree[static_cast<std::size_t>(v)], v);
    }
  }
  while (!heap.empty()) {
    const auto [degree, best] = heap.top();
    heap.pop();
    if (in_separator[static_cast<std::size_t>(best)] ||
        degree != cut_degree[static_cast<std::size_t>(best)] ||
        cut_degree[static_cast<std::size_t>(best)] == 0) {
      continue;
    }
    in_separator[static_cast<std::size_t>(best)] = true;
    for (index_t u : g.neighbors(best)) {
      if (part[static_cast<std::size_t>(u)] !=
              part[static_cast<std::size_t>(best)] &&
          !in_separator[static_cast<std::size_t>(u)]) {
        cut_degree[static_cast<std::size_t>(u)]--;
        if (cut_degree[static_cast<std::size_t>(u)] > 0) {
          heap.emplace(cut_degree[static_cast<std::size_t>(u)], u);
        }
      }
    }
    cut_degree[static_cast<std::size_t>(best)] = 0;
  }
  return in_separator;
}

}  // namespace ordo
