#include "partition/graph_partitioner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/coarsening.hpp"
#include "pipeline/fork_join.hpp"

namespace ordo {
namespace {

BisectionBalance make_balance(const Graph& g, double target_fraction,
                              double tolerance) {
  const double total = static_cast<double>(g.total_vertex_weight());
  BisectionBalance balance;
  balance.min_weight0 = static_cast<std::int64_t>(
      std::floor(total * target_fraction * (1.0 - tolerance)));
  balance.max_weight0 = static_cast<std::int64_t>(
      std::ceil(total * target_fraction * (1.0 + tolerance)));
  return balance;
}

// A subgraph in the recursion: the graph, and the root id of each vertex.
struct Subgraph {
  Graph graph;
  std::vector<index_t> to_root;
};

// Builds the subgraphs of `g` induced by part 0 and by part 1 into
// sides[0] and sides[1], in one pass over g's adjacency, refilling their
// storage. Vertices keep their relative order; `to_root` maps g's vertices
// to root ids, and `to_sub` is scratch.
void split_graph(const Graph& g, const std::vector<index_t>& part,
                 const std::vector<index_t>& to_root,
                 std::vector<index_t>& to_sub, std::array<Subgraph, 2>& sides) {
  const index_t n = g.num_vertices();
  std::array<GraphArrays, 2> arrays;
  for (std::size_t s = 0; s < 2; ++s) {
    arrays[s] = sides[s].graph.release();
    arrays[s].adj_ptr.assign(1, 0);
    arrays[s].adj.clear();
    arrays[s].vertex_weights.clear();
    arrays[s].edge_weights.clear();
    sides[s].to_root.clear();
  }
  to_sub.resize(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    const auto s = static_cast<std::size_t>(part[static_cast<std::size_t>(v)]);
    to_sub[static_cast<std::size_t>(v)] =
        static_cast<index_t>(sides[s].to_root.size());
    sides[s].to_root.push_back(to_root[static_cast<std::size_t>(v)]);
    arrays[s].vertex_weights.push_back(g.vertex_weight(v));
  }
  for (index_t v = 0; v < n; ++v) {
    const index_t side = part[static_cast<std::size_t>(v)];
    GraphArrays& out = arrays[static_cast<std::size_t>(side)];
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const auto u = static_cast<std::size_t>(neighbors[k]);
      if (part[u] == side) {
        out.adj.push_back(to_sub[u]);
        out.edge_weights.push_back(
            g.edge_weight(base + static_cast<offset_t>(k)));
      }
    }
    out.adj_ptr.push_back(static_cast<offset_t>(out.adj.size()));
  }
  for (std::size_t s = 0; s < 2; ++s) {
    sides[s].graph = Graph(static_cast<index_t>(sides[s].to_root.size()),
                           std::move(arrays[s]));
  }
}

// One k-way partition in flight through the recursion: the result it
// writes, and the part count and first part id of the current subtree.
struct PartRequest {
  std::size_t output = 0;
  index_t num_parts = 0;
  index_t first_part = 0;
};

// A request and the reduced fraction left_parts / num_parts of its next
// bisection.
struct KeyedRequest {
  std::pair<index_t, index_t> fraction;
  PartRequest request;
};

// What a node at one recursion depth keeps while its subtrees run.
struct DepthScratch {
  std::vector<KeyedRequest> keyed;
  std::array<Subgraph, 2> sides;
  std::array<std::vector<PartRequest>, 2> requests;
};

// One recursion thread's scratch. `depths` is a deque so that a node's
// entry stays put while deeper nodes add theirs.
struct RecursionScratch {
  GraphBisector bisector;
  std::vector<index_t> to_sub;
  std::deque<DepthScratch> depths;

  DepthScratch& at(std::size_t depth) {
    while (depths.size() <= depth) depths.emplace_back();
    return depths[depth];
  }
};

// The result bisect_graph returns for `part`, checked against its
// contracts.
PartitionResult bisection_result(const Graph& g, std::vector<index_t> part,
                                 [[maybe_unused]] double tolerance) {
  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = 2;
  result.cut = compute_edge_cut(g, result.part);
  result.imbalance = compute_partition_imbalance(g, result.part, 2);
  ORDO_CHECK(validate_partition(g, result, 2, "bisect_graph"));
  ORDO_CHECK(
      validate_bisection_balance(g, result, tolerance, "bisect_graph"));
  return result;
}

// Recursive bisection for several part counts at once. A bisection is a pure
// function of the subgraph, the target fraction left_parts / num_parts and
// the path-derived seed, none of which depends on k, so the requests whose
// fractions agree at a node share one bisection and the subtree below it.
// Requests are grouped by their reduced integer fraction: equal reduced
// fractions divide to the same double, so the shared bisection is exactly the
// one each request would have made alone. Each group writes only its own
// requests' outputs, so the order groups run in changes no byte.
void recursive_bisect(const Graph& g, const PartitionOptions& options,
                      const std::vector<PartRequest>& requests,
                      const std::vector<index_t>& to_root,
                      std::vector<PartitionResult>& out, std::uint64_t seed,
                      RecursionScratch& scratch, std::size_t depth) {
  DepthScratch& here = scratch.at(depth);
  std::vector<KeyedRequest>& keyed = here.keyed;
  keyed.clear();
  for (const PartRequest& request : requests) {
    if (request.num_parts <= 1 || g.num_vertices() == 0) {
      std::vector<index_t>& part = out[request.output].part;
      for (index_t v = 0; v < g.num_vertices(); ++v) {
        part[static_cast<std::size_t>(to_root[static_cast<std::size_t>(v)])] =
            request.first_part;
      }
      continue;
    }
    const index_t left_parts = request.num_parts / 2;
    const index_t divisor = std::gcd(left_parts, request.num_parts);
    // Insertion by fraction, after equal ones: the few requests of a node
    // stay in arrival order within a group.
    KeyedRequest entry{{left_parts / divisor, request.num_parts / divisor},
                       request};
    keyed.push_back(entry);
    for (std::size_t k = keyed.size() - 1;
         k > 0 && entry.fraction < keyed[k - 1].fraction; --k) {
      std::swap(keyed[k], keyed[k - 1]);
    }
  }

  for (std::size_t first = 0, last = 0; first < keyed.size(); first = last) {
    const std::pair<index_t, index_t> fraction = keyed[first].fraction;
    for (last = first; last < keyed.size() && keyed[last].fraction == fraction;
         ++last) {
    }
    poll_cancelled(options.cancel, "partition_graph");
    {
      PartitionOptions bisect_options = options;
      bisect_options.seed = seed;
      const std::vector<index_t>& part = scratch.bisector.bisect(
          g,
          static_cast<double>(fraction.first) /
              static_cast<double>(fraction.second),
          bisect_options);
      if constexpr (check::invariant_checks_enabled()) {
        bisection_result(g, part, options.imbalance_tolerance);
      }
      split_graph(g, part, to_root, scratch.to_sub, here.sides);
      if (g.num_vertices() > kRetainedScratchVertices) {
        scratch.bisector = GraphBisector();
      }
    }
    for (std::vector<PartRequest>& side : here.requests) side.clear();
    for (std::size_t k = first; k < last; ++k) {
      const PartRequest& request = keyed[k].request;
      const index_t left_parts = request.num_parts / 2;
      here.requests[0].push_back(
          {request.output, left_parts, request.first_part});
      here.requests[1].push_back({request.output,
                                  request.num_parts - left_parts,
                                  request.first_part + left_parts});
    }
    // The subtrees write disjoint vertices of `out`, so either may run on
    // an idle core, with scratch of its own.
    pipeline::fork_join_with(
        static_cast<std::size_t>(here.sides[0].graph.num_vertices()), scratch,
        [&](RecursionScratch& mine) {
          recursive_bisect(here.sides[0].graph, options, here.requests[0],
                           here.sides[0].to_root, out,
                           seed * 6364136223846793005ULL + 1, mine,
                           &mine == &scratch ? depth + 1 : 0);
        },
        [&](RecursionScratch& mine) {
          recursive_bisect(here.sides[1].graph, options, here.requests[1],
                           here.sides[1].to_root, out,
                           seed * 6364136223846793005ULL + 2, mine,
                           depth + 1);
        });
  }
}

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
        make_balance(*current, target_fraction, options.imbalance_tolerance),
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
          make_balance(fine, target_fraction, options.imbalance_tolerance),
          options.refine_passes, fm_);
    }
  }

  repair_degenerate_bisection(g, part_);
  return part_;
}

PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options) {
  GraphBisector bisector;
  return bisection_result(g, bisector.bisect(g, target_fraction, options),
                          options.imbalance_tolerance);
}

std::vector<PartitionResult> partition_graph(
    const Graph& g, const std::vector<index_t>& part_counts,
    const PartitionOptions& options) {
  ORDO_SCOPE("partition/graph_kway");
  const index_t n = g.num_vertices();
  std::vector<PartitionResult> results(part_counts.size());
  std::vector<PartRequest> requests;
  for (std::size_t i = 0; i < part_counts.size(); ++i) {
    require(part_counts[i] >= 1, "partition_graph: num_parts must be >= 1");
    results[i].part.assign(static_cast<std::size_t>(n), 0);
    results[i].num_parts = part_counts[i];
    requests.push_back({i, part_counts[i], 0});
  }
  if (n > 0) {
    std::vector<index_t> to_root(static_cast<std::size_t>(n));
    std::iota(to_root.begin(), to_root.end(), index_t{0});
    RecursionScratch scratch;
    recursive_bisect(g, options, requests, to_root, results, options.seed,
                     scratch, 0);
  }
  for (PartitionResult& result : results) {
    result.cut = compute_edge_cut(g, result.part);
    result.imbalance =
        compute_partition_imbalance(g, result.part, result.num_parts);
    ORDO_CHECK(
        validate_partition(g, result, result.num_parts, "partition_graph"));
  }
  return results;
}

PartitionResult partition_graph(const Graph& g,
                                const PartitionOptions& options) {
  return std::move(partition_graph(g, {options.num_parts}, options).front());
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
