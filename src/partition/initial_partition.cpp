#include "partition/initial_partition.hpp"

#include <algorithm>
#include <limits>
#include <random>

#include "partition/gain_queue.hpp"

namespace ordo {
namespace {

// Grows part 0 from `start` until it holds ~target_weight, and returns the
// edge cut of the result. Gain of absorbing v = (weight of edges from v into
// part 0) - (weight of edges to the rest): absorbing high-gain vertices
// keeps the boundary small.
std::int64_t grow_from(const Graph& g, index_t start,
                       std::int64_t target_weight, GrowScratch& scratch,
                       std::vector<index_t>& part) {
  const index_t n = g.num_vertices();
  part.assign(static_cast<std::size_t>(n), 1);
  // The frontier, keyed by gain; ties go to the vertex that joined it first.
  // The queue breaks ties toward the higher id, so a frontier vertex's queue
  // id is n - 1 - (its arrival rank), and `arrived[id]` maps it back.
  // `pop` ignores balance, so every vertex joins side 0 with weight 1.
  FmGainQueue& frontier = scratch.frontier;
  frontier.reset(n);
  std::vector<index_t>& queue_id = scratch.queue_id;
  queue_id.assign(static_cast<std::size_t>(n), -1);
  std::vector<index_t>& arrived = scratch.arrived;
  arrived.resize(static_cast<std::size_t>(n));
  index_t arrivals = 0;

  std::int64_t weight0 = 0;
  // Absorbing v uncuts its edges into part 0 and cuts the rest.
  std::int64_t cut = 0;
  index_t next = start;
  index_t first_free = 0;  // no vertex below it is unassigned
  while (next >= 0 && weight0 < target_weight) {
    const index_t v = next;
    part[static_cast<std::size_t>(v)] = 0;
    weight0 += g.vertex_weight(v);

    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
      if (part[static_cast<std::size_t>(u)] == 0) {
        cut -= w;
        continue;
      }
      cut += w;
      index_t& id = queue_id[static_cast<std::size_t>(u)];
      if (id < 0) {
        id = n - 1 - arrivals++;
        arrived[static_cast<std::size_t>(id)] = u;
        frontier.insert(id, 2 * w, 0, 1);
      } else {
        frontier.add(id, 2 * w);
      }
    }

    // Absorb the best frontier vertex next.
    const index_t best = frontier.pop();
    next = best >= 0 ? arrived[static_cast<std::size_t>(best)] : -1;

    // Disconnected remainder: restart growth from the lowest unassigned
    // vertex. Vertices only ever join part 0, so it never moves backwards.
    if (next < 0 && weight0 < target_weight) {
      while (first_free < n &&
             part[static_cast<std::size_t>(first_free)] == 0) {
        ++first_free;
      }
      if (first_free < n) next = first_free;
    }
  }
  return cut;
}

}  // namespace

void greedy_graph_growing_bisection(const Graph& g, double target_fraction,
                                    std::uint64_t seed, GrowScratch& scratch,
                                    std::vector<index_t>& part,
                                    int num_trials) {
  const index_t n = g.num_vertices();
  require(n > 0, "greedy_graph_growing_bisection: empty graph");
  require(target_fraction > 0.0 && target_fraction < 1.0,
          "greedy_graph_growing_bisection: target fraction must be in (0,1)");
  const std::int64_t target_weight = static_cast<std::int64_t>(
      static_cast<double>(g.total_vertex_weight()) * target_fraction + 0.5);

  std::mt19937_64 rng(seed);
  scratch.search.set_graph(g);
  std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
  for (int trial = 0; trial < std::max(1, num_trials); ++trial) {
    std::uniform_int_distribution<index_t> dist(0, n - 1);
    const index_t start = scratch.search.run(dist(rng));
    const std::int64_t cut =
        grow_from(g, start, target_weight, scratch, scratch.trial);
    if (cut < best_cut) {
      best_cut = cut;
      part.swap(scratch.trial);
    }
  }
}

std::vector<index_t> greedy_graph_growing_bisection(const Graph& g,
                                                    double target_fraction,
                                                    std::uint64_t seed,
                                                    int num_trials) {
  GrowScratch scratch;
  std::vector<index_t> part;
  greedy_graph_growing_bisection(g, target_fraction, seed, scratch, part,
                                 num_trials);
  return part;
}

}  // namespace ordo
