// Initial bisection of the coarsest graph.
//
// Greedy graph growing (GGG): grow part 0 by BFS from a pseudo-peripheral
// vertex, always absorbing the frontier vertex whose absorption decreases the
// cut the most, until part 0 reaches its weight target. Several trials with
// different seeds are run and the best (lowest-cut balanced) bisection wins.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/gain_queue.hpp"

namespace ordo {

/// Scratch greedy growing reuses across calls: no allocation once it has
/// grown to the graph's size.
struct GrowScratch {
  PeripheralSearch search;
  FmGainQueue frontier;
  std::vector<index_t> queue_id;
  std::vector<index_t> arrived;
  std::vector<index_t> trial;
};

/// Computes a bisection of `g` where part 0 receives approximately
/// `target_fraction` of the total vertex weight, writing the part id (0/1)
/// per vertex into `part`.
void greedy_graph_growing_bisection(const Graph& g, double target_fraction,
                                    std::uint64_t seed, GrowScratch& scratch,
                                    std::vector<index_t>& part,
                                    int num_trials = 4);

/// The same with fresh scratch, returning the parts.
std::vector<index_t> greedy_graph_growing_bisection(const Graph& g,
                                                    double target_fraction,
                                                    std::uint64_t seed,
                                                    int num_trials = 4);

}  // namespace ordo
