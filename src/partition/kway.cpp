// k-way partitioning by recursive bisection, written once for graphs (GP's
// METIS stand-in) and hypergraphs (HP's PaToH stand-in).
//
// One driver, a template over the structure, takes a list of part counts
// and builds all of them from one recursive-bisection tree (DESIGN §16):
// GP passes the study's six core counts, HP its one. Each node is bisected
// by the structure's own multilevel V-cycle (GraphBisector in
// graph_partitioner.cpp, HypergraphBisector in hypergraph_partitioner.cpp);
// everything around it lives here: grouping the requests, splitting the
// node into its two sides, per-depth scratch, running the two subtrees
// (the left one on an idle core when there is one, DESIGN §20), the leaf
// writes and the checked result.
#include <array>
#include <deque>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/graph_partitioner.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "pipeline/fork_join.hpp"

namespace ordo {
namespace {

// A subgraph (or sub-hypergraph) in the recursion: the structure, and the
// root id of each vertex.
template <typename Structure>
struct Subgraph {
  Structure structure;
  std::vector<index_t> to_root;
};

// Builds the subgraphs of `g` induced by part 0 and by part 1 into
// sides[0] and sides[1], in one pass over g's adjacency, refilling their
// storage. Vertices keep their relative order; `to_root` maps g's vertices
// to root ids, and `to_sub` is scratch.
void split(const Graph& g, const std::vector<index_t>& part,
           const std::vector<index_t>& to_root, std::vector<index_t>& to_sub,
           std::array<Subgraph<Graph>, 2>& sides) {
  const index_t n = g.num_vertices();
  std::array<GraphArrays, 2> arrays;
  for (std::size_t s = 0; s < 2; ++s) {
    arrays[s] = sides[s].structure.release();
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
    sides[s].structure = Graph(static_cast<index_t>(sides[s].to_root.size()),
                               std::move(arrays[s]));
  }
}

// The same for a hypergraph, in one pass over the nets. A net keeps its
// pins on each side, and is dropped from a side where fewer than two
// remain.
void split(const Hypergraph& h, const std::vector<index_t>& part,
           const std::vector<index_t>& to_root, std::vector<index_t>& to_sub,
           std::array<Subgraph<Hypergraph>, 2>& sides) {
  std::array<HypergraphArrays, 2> arrays;
  for (std::size_t s = 0; s < 2; ++s) {
    arrays[s] = sides[s].structure.release();
    arrays[s].net_ptr.assign(1, 0);
    arrays[s].pins.clear();
    arrays[s].vertex_weights.clear();
    arrays[s].net_weights.clear();
    sides[s].to_root.clear();
  }
  to_sub.resize(static_cast<std::size_t>(h.num_vertices()));
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const auto s = static_cast<std::size_t>(part[static_cast<std::size_t>(v)]);
    to_sub[static_cast<std::size_t>(v)] =
        static_cast<index_t>(sides[s].to_root.size());
    sides[s].to_root.push_back(to_root[static_cast<std::size_t>(v)]);
    arrays[s].vertex_weights.push_back(h.vertex_weight(v));
  }
  for (index_t e = 0; e < h.num_nets(); ++e) {
    const std::array<std::size_t, 2> begin = {arrays[0].pins.size(),
                                              arrays[1].pins.size()};
    for (index_t pin : h.net_pins(e)) {
      arrays[static_cast<std::size_t>(part[static_cast<std::size_t>(pin)])]
          .pins.push_back(to_sub[static_cast<std::size_t>(pin)]);
    }
    for (std::size_t s = 0; s < 2; ++s) {
      std::vector<index_t>& pins = arrays[s].pins;
      if (pins.size() - begin[s] < 2) {
        pins.resize(begin[s]);
      } else {
        arrays[s].net_ptr.push_back(static_cast<offset_t>(pins.size()));
        arrays[s].net_weights.push_back(h.net_weight(e));
      }
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    sides[s].structure = Hypergraph(
        static_cast<index_t>(sides[s].to_root.size()), std::move(arrays[s]));
  }
}

// What else differs between the two structures: the bisector, the name
// the k-way entry point polls and checks under, the cut metric and the
// partition contract.
template <typename Structure>
struct Traits;

template <>
struct Traits<Graph> {
  using Bisector = GraphBisector;
  static constexpr const char* kEntry = "partition_graph";
  static std::int64_t cut(const Graph& g, const std::vector<index_t>& part) {
    return compute_edge_cut(g, part);
  }
  static void validate([[maybe_unused]] const Graph& g,
                       [[maybe_unused]] const PartitionResult& result,
                       [[maybe_unused]] const char* where) {
    ORDO_CHECK(validate_partition(g, result, result.num_parts, where));
  }
};

template <>
struct Traits<Hypergraph> {
  using Bisector = HypergraphBisector;
  static constexpr const char* kEntry = "partition_hypergraph";
  static std::int64_t cut(const Hypergraph& h,
                          const std::vector<index_t>& part) {
    return compute_cut_nets(h, part);
  }
  static void validate([[maybe_unused]] const Hypergraph& h,
                       [[maybe_unused]] const PartitionResult& result,
                       [[maybe_unused]] const char* where) {
    ORDO_CHECK(
        validate_hypergraph_partition(h, result, result.num_parts, where));
  }
};

// `part` as a partition of `s` into `num_parts` parts, with its cut and
// imbalance, checked against the partition contract at `where`.
template <typename Structure>
PartitionResult finish(const Structure& s, std::vector<index_t> part,
                       index_t num_parts, const char* where) {
  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = num_parts;
  result.cut = Traits<Structure>::cut(s, result.part);
  result.imbalance = compute_partition_imbalance(s, result.part, num_parts);
  Traits<Structure>::validate(s, result, where);
  return result;
}

// The result bisect_graph or bisect_hypergraph returns for `part`. A graph
// bisection is also checked for an empty side, which
// GraphBisector::bisect repairs; HypergraphBisector::bisect does not.
PartitionResult bisection_result(const Graph& g, std::vector<index_t> part,
                                 [[maybe_unused]] double tolerance) {
  PartitionResult result = finish(g, std::move(part), 2, "bisect_graph");
  ORDO_CHECK(
      validate_bisection_balance(g, result, tolerance, "bisect_graph"));
  return result;
}

PartitionResult bisection_result(const Hypergraph& h,
                                 std::vector<index_t> part, double) {
  return finish(h, std::move(part), 2, "bisect_hypergraph");
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
template <typename Structure>
struct DepthScratch {
  std::vector<KeyedRequest> keyed;
  std::array<Subgraph<Structure>, 2> sides;
  std::array<std::vector<PartRequest>, 2> requests;
};

// One recursion thread's scratch. `depths` is a deque so that a node's
// entry stays put while deeper nodes add theirs.
template <typename Structure>
struct RecursionScratch {
  typename Traits<Structure>::Bisector bisector;
  std::vector<index_t> to_sub;
  std::deque<DepthScratch<Structure>> depths;

  DepthScratch<Structure>& at(std::size_t depth) {
    while (depths.size() <= depth) depths.emplace_back();
    return depths[depth];
  }
};

// Recursive bisection for several part counts at once. A bisection is a pure
// function of the subgraph, the target fraction left_parts / num_parts and
// the path-derived seed, none of which depends on k, so the requests whose
// fractions agree at a node share one bisection and the subtree below it.
// Requests are grouped by their reduced integer fraction: equal reduced
// fractions divide to the same double, so the shared bisection is exactly the
// one each request would have made alone. Each group writes only its own
// requests' outputs, so the order groups run in changes no byte.
template <typename Structure>
void recursive_bisect(const Structure& s, const PartitionOptions& options,
                      const std::vector<PartRequest>& requests,
                      const std::vector<index_t>& to_root,
                      std::vector<PartitionResult>& out, std::uint64_t seed,
                      RecursionScratch<Structure>& scratch,
                      std::size_t depth) {
  DepthScratch<Structure>& here = scratch.at(depth);
  std::vector<KeyedRequest>& keyed = here.keyed;
  keyed.clear();
  for (const PartRequest& request : requests) {
    if (request.num_parts <= 1 || s.num_vertices() == 0) {
      std::vector<index_t>& part = out[request.output].part;
      for (index_t v = 0; v < s.num_vertices(); ++v) {
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
    poll_cancelled(options.cancel, Traits<Structure>::kEntry);
    {
      PartitionOptions bisect_options = options;
      bisect_options.seed = seed;
      const std::vector<index_t>& part = scratch.bisector.bisect(
          s,
          static_cast<double>(fraction.first) /
              static_cast<double>(fraction.second),
          bisect_options);
      if constexpr (check::invariant_checks_enabled()) {
        bisection_result(s, part, options.imbalance_tolerance);
      }
      split(s, part, to_root, scratch.to_sub, here.sides);
      if (s.num_vertices() > kRetainedScratchVertices) scratch.bisector = {};
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
        static_cast<std::size_t>(here.sides[0].structure.num_vertices()),
        scratch,
        [&](RecursionScratch<Structure>& mine) {
          recursive_bisect(here.sides[0].structure, options, here.requests[0],
                           here.sides[0].to_root, out, subtree_seed(seed, 0),
                           mine, &mine == &scratch ? depth + 1 : 0);
        },
        [&](RecursionScratch<Structure>& mine) {
          recursive_bisect(here.sides[1].structure, options, here.requests[1],
                           here.sides[1].to_root, out, subtree_seed(seed, 1),
                           mine, depth + 1);
        });
  }
}

// One partition of `s` per entry of `part_counts`, all from one tree.
template <typename Structure>
std::vector<PartitionResult> partition_kway(
    const Structure& s, const std::vector<index_t>& part_counts,
    const PartitionOptions& options) {
  const char* const entry = Traits<Structure>::kEntry;
  const index_t n = s.num_vertices();
  std::vector<PartitionResult> results(part_counts.size());
  std::vector<PartRequest> requests;
  for (std::size_t i = 0; i < part_counts.size(); ++i) {
    if (part_counts[i] < 1) {
      throw invalid_argument_error(std::string(entry) +
                                   ": num_parts must be >= 1");
    }
    results[i].part.assign(static_cast<std::size_t>(n), 0);
    requests.push_back({i, part_counts[i], 0});
  }
  if (n > 0) {
    std::vector<index_t> to_root(static_cast<std::size_t>(n));
    std::iota(to_root.begin(), to_root.end(), index_t{0});
    RecursionScratch<Structure> scratch;
    recursive_bisect(s, options, requests, to_root, results, options.seed,
                     scratch, 0);
  }
  for (std::size_t i = 0; i < part_counts.size(); ++i) {
    results[i] = finish(s, std::move(results[i].part), part_counts[i], entry);
  }
  return results;
}

}  // namespace

PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options) {
  GraphBisector bisector;
  return bisection_result(g, bisector.bisect(g, target_fraction, options),
                          options.imbalance_tolerance);
}

PartitionResult bisect_hypergraph(const Hypergraph& h, double target_fraction,
                                  const PartitionOptions& options) {
  HypergraphBisector bisector;
  return bisection_result(h, bisector.bisect(h, target_fraction, options),
                          options.imbalance_tolerance);
}

std::vector<PartitionResult> partition_graph(
    const Graph& g, const std::vector<index_t>& part_counts,
    const PartitionOptions& options) {
  ORDO_SCOPE("partition/graph_kway");
  return partition_kway(g, part_counts, options);
}

PartitionResult partition_hypergraph(const Hypergraph& h, index_t num_parts,
                                     const PartitionOptions& options) {
  ORDO_SCOPE("partition/hypergraph_kway");
  return std::move(partition_kway(h, {num_parts}, options).front());
}

}  // namespace ordo
