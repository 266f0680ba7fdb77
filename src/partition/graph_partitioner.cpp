#include "partition/graph_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/coarsening.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/initial_partition.hpp"
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

// Extracts the subgraph induced by the vertices with part[v] == which, along
// with the mapping from subgraph ids back to the parent's ids.
struct Subgraph {
  Graph graph;
  std::vector<index_t> to_parent;
};

Subgraph induced_subgraph(const Graph& g, const std::vector<index_t>& part,
                          index_t which) {
  Subgraph sub;
  std::vector<index_t> to_sub(static_cast<std::size_t>(g.num_vertices()), -1);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == which) {
      to_sub[static_cast<std::size_t>(v)] =
          static_cast<index_t>(sub.to_parent.size());
      sub.to_parent.push_back(v);
    }
  }
  const index_t n = static_cast<index_t>(sub.to_parent.size());
  CsrArray<offset_t> adj_ptr(static_cast<std::size_t>(n) + 1, 0);
  CsrArray<index_t> adj;
  std::vector<index_t> eweights;
  std::vector<index_t> vweights(static_cast<std::size_t>(n));
  for (index_t sv = 0; sv < n; ++sv) {
    const index_t v = sub.to_parent[static_cast<std::size_t>(sv)];
    vweights[static_cast<std::size_t>(sv)] = g.vertex_weight(v);
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t su = to_sub[static_cast<std::size_t>(neighbors[k])];
      if (su >= 0) {
        adj.push_back(su);
        eweights.push_back(g.edge_weight(base + static_cast<offset_t>(k)));
      }
    }
    adj_ptr[static_cast<std::size_t>(sv) + 1] =
        static_cast<offset_t>(adj.size());
  }
  sub.graph = Graph(n, std::move(adj_ptr), std::move(adj), std::move(vweights),
                    std::move(eweights));
  return sub;
}

// One k-way partition in flight through the recursion: the result it
// writes, and the part count and first part id of the current subtree.
struct PartRequest {
  std::size_t output = 0;
  index_t num_parts = 0;
  index_t first_part = 0;
};

// Recursive bisection for several part counts at once. A bisection is a pure
// function of the subgraph, the target fraction left_parts / num_parts and
// the path-derived seed, none of which depends on k, so the requests whose
// fractions agree at a node share one bisect_graph call and the subtree below
// it. Requests are grouped by their reduced integer fraction: equal reduced
// fractions divide to the same double, so the shared bisection is exactly the
// one each request would have made alone.
void recursive_bisect(const Graph& g, const PartitionOptions& options,
                      const std::vector<PartRequest>& requests,
                      const std::vector<index_t>& to_parent,
                      std::vector<PartitionResult>& out, std::uint64_t seed) {
  std::map<std::pair<index_t, index_t>, std::vector<PartRequest>> groups;
  for (const PartRequest& request : requests) {
    if (request.num_parts <= 1 || g.num_vertices() == 0) {
      std::vector<index_t>& part = out[request.output].part;
      for (index_t v = 0; v < g.num_vertices(); ++v) {
        part[static_cast<std::size_t>(to_parent[static_cast<std::size_t>(v)])] =
            request.first_part;
      }
      continue;
    }
    const index_t left_parts = request.num_parts / 2;
    const index_t divisor = std::gcd(left_parts, request.num_parts);
    groups[{left_parts / divisor, request.num_parts / divisor}].push_back(
        request);
  }

  for (const auto& [fraction, group] : groups) {
    poll_cancelled(options.cancel, "partition_graph");
    // The bisection dies here, before the subtrees run: a forked subtree
    // adds its working set to the memory its ancestors still hold.
    Subgraph left;
    Subgraph right;
    {
      PartitionOptions bisect_options = options;
      bisect_options.seed = seed;
      const PartitionResult bisection = bisect_graph(
          g,
          static_cast<double>(fraction.first) /
              static_cast<double>(fraction.second),
          bisect_options);
      left = induced_subgraph(g, bisection.part, 0);
      right = induced_subgraph(g, bisection.part, 1);
    }
    // Translate the sub-to-parent maps one level further up.
    for (index_t& v : left.to_parent) {
      v = to_parent[static_cast<std::size_t>(v)];
    }
    for (index_t& v : right.to_parent) {
      v = to_parent[static_cast<std::size_t>(v)];
    }

    std::vector<PartRequest> left_requests;
    std::vector<PartRequest> right_requests;
    for (const PartRequest& request : group) {
      const index_t left_parts = request.num_parts / 2;
      left_requests.push_back({request.output, left_parts, request.first_part});
      right_requests.push_back({request.output, request.num_parts - left_parts,
                                request.first_part + left_parts});
    }
    // The subtrees write disjoint vertices of `out`, so either may run on
    // an idle core.
    pipeline::fork_join(
        static_cast<std::size_t>(left.graph.num_vertices()),
        [&] {
          recursive_bisect(left.graph, options, left_requests, left.to_parent,
                           out, seed * 6364136223846793005ULL + 1);
        },
        [&] {
          recursive_bisect(right.graph, options, right_requests,
                           right.to_parent, out,
                           seed * 6364136223846793005ULL + 2);
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

PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options) {
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
  std::vector<index_t> part;
  {
    ORDO_SCOPE("partition/initial");
    part = greedy_graph_growing_bisection(*current, target_fraction, seed);
    fm_refine_bisection(
        *current, part,
        make_balance(*current, target_fraction, options.imbalance_tolerance),
        options.refine_passes);
  }

  // Uncoarsening: project the partition to each finer level and refine.
  {
    ORDO_SCOPE("partition/refine");
    for (std::size_t level = hierarchy.size(); level > 0; --level) {
      const Graph& fine = level >= 2 ? hierarchy[level - 2].graph : g;
      const std::vector<index_t>& fine_to_coarse =
          hierarchy[level - 1].fine_to_coarse;
      std::vector<index_t> fine_part(
          static_cast<std::size_t>(fine.num_vertices()));
      for (index_t v = 0; v < fine.num_vertices(); ++v) {
        fine_part[static_cast<std::size_t>(v)] =
            part[static_cast<std::size_t>(
                fine_to_coarse[static_cast<std::size_t>(v)])];
      }
      part = std::move(fine_part);
      fm_refine_bisection(
          fine, part,
          make_balance(fine, target_fraction, options.imbalance_tolerance),
          options.refine_passes);
    }
  }

  repair_degenerate_bisection(g, part);

  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = 2;
  result.cut = compute_edge_cut(g, result.part);
  result.imbalance = compute_partition_imbalance(g, result.part, 2);
  ORDO_CHECK(validate_partition(g, result, 2, "bisect_graph"));
  ORDO_CHECK(validate_bisection_balance(
      g, result, options.imbalance_tolerance, "bisect_graph"));
  return result;
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
    std::vector<index_t> to_parent(static_cast<std::size_t>(n));
    std::iota(to_parent.begin(), to_parent.end(), index_t{0});
    recursive_bisect(g, options, requests, to_parent, results, options.seed);
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
