#include "partition/coarsening.hpp"

#include <algorithm>
#include <numeric>
#include <random>

namespace ordo {

std::vector<index_t> heavy_edge_matching(const Graph& g, std::uint64_t seed) {
  const index_t n = g.num_vertices();
  std::vector<index_t> match(static_cast<std::size_t>(n), -1);
  std::vector<index_t> visit_order(static_cast<std::size_t>(n));
  std::iota(visit_order.begin(), visit_order.end(), index_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(visit_order.begin(), visit_order.end(), rng);

  for (index_t v : visit_order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    index_t best = -1;
    index_t best_weight = -1;
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (match[static_cast<std::size_t>(u)] >= 0) continue;
      const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
      if (w > best_weight || (w == best_weight && u < best)) {
        best = u;
        best_weight = w;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
  return match;
}

CoarseLevel contract(const Graph& g, const std::vector<index_t>& match) {
  const index_t n = g.num_vertices();
  require(match.size() == static_cast<std::size_t>(n),
          "contract: matching size mismatch");

  // Assign coarse ids: the smaller endpoint of each matched pair owns the id.
  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  index_t coarse_count = 0;
  for (index_t v = 0; v < n; ++v) {
    const index_t partner = match[static_cast<std::size_t>(v)];
    if (partner >= v) {
      level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
      if (partner != v) {
        level.fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
      }
      ++coarse_count;
    }
  }

  // Accumulate coarse adjacency, merging parallel edges. A scratch map from
  // coarse neighbour id to its position in the current row avoids sorting.
  CsrArray<offset_t> c_ptr(static_cast<std::size_t>(coarse_count) + 1, 0);
  CsrArray<index_t> c_adj;
  std::vector<index_t> c_eweights;
  std::vector<index_t> c_vweights(static_cast<std::size_t>(coarse_count), 0);
  std::vector<offset_t> slot(static_cast<std::size_t>(coarse_count), -1);
  // The coarse adjacency is at most the fine one: one allocation each.
  c_adj.reserve(static_cast<std::size_t>(g.num_adjacency_entries()));
  c_eweights.reserve(static_cast<std::size_t>(g.num_adjacency_entries()));

  for (index_t v = 0; v < n; ++v) {
    c_vweights[static_cast<std::size_t>(
        level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }

  // Iterate coarse vertices in id order; for each, merge the adjacency of
  // its one or two fine constituents.
  std::vector<std::pair<index_t, index_t>>& owners = level.coarse_to_fine;
  owners.assign(static_cast<std::size_t>(coarse_count), {-1, -1});
  for (index_t v = 0; v < n; ++v) {
    const index_t c = level.fine_to_coarse[static_cast<std::size_t>(v)];
    if (owners[static_cast<std::size_t>(c)].first < 0) {
      owners[static_cast<std::size_t>(c)].first = v;
    } else {
      owners[static_cast<std::size_t>(c)].second = v;
    }
  }

  for (index_t c = 0; c < coarse_count; ++c) {
    const offset_t row_begin = static_cast<offset_t>(c_adj.size());
    for (index_t v : {owners[static_cast<std::size_t>(c)].first,
                      owners[static_cast<std::size_t>(c)].second}) {
      if (v < 0) continue;
      const auto neighbors = g.neighbors(v);
      const offset_t base = g.adj_ptr()[v];
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const index_t cu =
            level.fine_to_coarse[static_cast<std::size_t>(neighbors[k])];
        if (cu == c) continue;  // contracted edge disappears
        const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
        if (slot[static_cast<std::size_t>(cu)] < row_begin) {
          slot[static_cast<std::size_t>(cu)] =
              static_cast<offset_t>(c_adj.size());
          c_adj.push_back(cu);
          c_eweights.push_back(w);
        } else {
          c_eweights[static_cast<std::size_t>(
              slot[static_cast<std::size_t>(cu)])] += w;
        }
      }
    }
    c_ptr[static_cast<std::size_t>(c) + 1] = static_cast<offset_t>(c_adj.size());
  }

  level.graph = Graph(coarse_count, std::move(c_ptr), std::move(c_adj),
                      std::move(c_vweights), std::move(c_eweights));
  return level;
}

CoarseLevel coarsen_once(const Graph& g, std::uint64_t seed) {
  return contract(g, heavy_edge_matching(g, seed));
}

}  // namespace ordo
