// Tests for the multilevel graph and hypergraph partitioners: matching and
// contraction invariants, FM gain correctness, balance constraints, cut
// quality on structured graphs, and separator properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <random>

#include "corpus/generators.hpp"
#include "obs/obs.hpp"
#include "partition/coarsening.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/gain_queue.hpp"
#include "partition/graph_partitioner.hpp"
#include "partition/hypergraph.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "partition/initial_partition.hpp"
#include "reorder/reordering.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_symmetric;

TEST(Matching, IsSymmetricAndComplete) {
  const Graph g = Graph::from_matrix(random_symmetric(300, 4.0, 2));
  const auto match = heavy_edge_matching(g, 7);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const index_t partner = match[static_cast<std::size_t>(v)];
    ASSERT_GE(partner, 0);
    EXPECT_EQ(match[static_cast<std::size_t>(partner)], v);
  }
}

TEST(Contract, PreservesTotalVertexWeight) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(15, 15));
  const CoarseLevel level = coarsen_once(g, 3);
  EXPECT_EQ(level.graph.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
  // At least a good fraction of vertices must match on a grid.
  EXPECT_LE(level.graph.num_vertices(), 3 * g.num_vertices() / 4);
}

TEST(Contract, EdgeWeightsAggregateCutInvariantly) {
  // The total edge weight of the coarse graph plus contracted-away edge
  // weight equals the fine total.
  const Graph g = Graph::from_matrix(grid_laplacian_2d(10, 10));
  const auto match = heavy_edge_matching(g, 1);
  const CoarseLevel level = contract(g, match);
  std::int64_t fine_total = 0;
  for (offset_t e = 0; e < g.num_adjacency_entries(); ++e) {
    fine_total += g.edge_weight(e);
  }
  std::int64_t coarse_total = 0;
  for (offset_t e = 0; e < level.graph.num_adjacency_entries(); ++e) {
    coarse_total += level.graph.edge_weight(e);
  }
  std::int64_t contracted = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const index_t partner = match[static_cast<std::size_t>(v)];
    if (partner == v) continue;
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (neighbors[k] == partner) {
        contracted += g.edge_weight(base + static_cast<offset_t>(k));
      }
    }
  }
  EXPECT_EQ(coarse_total + contracted, fine_total);
}

TEST(FmGain, MatchesBruteForceCutDelta) {
  const Graph g = Graph::from_matrix(random_symmetric(80, 4.0, 5));
  std::vector<index_t> part(static_cast<std::size_t>(g.num_vertices()));
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    part[static_cast<std::size_t>(v)] = v % 2;
  }
  const std::int64_t base_cut = compute_edge_cut(g, part);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t gain = fm_move_gain(g, part, v);
    part[static_cast<std::size_t>(v)] = 1 - part[static_cast<std::size_t>(v)];
    EXPECT_EQ(base_cut - compute_edge_cut(g, part), gain) << "vertex " << v;
    part[static_cast<std::size_t>(v)] = 1 - part[static_cast<std::size_t>(v)];
  }
}

// The lazily invalidated heap both FM refiners used before FmGainQueue, kept
// as its reference: pops skip entries whose gain went stale, and entries
// whose move is infeasible are set aside and all pushed back after a move.
class LazyGainHeap {
 public:
  explicit LazyGainHeap(index_t n)
      : gain_(static_cast<std::size_t>(n), 0),
        state_(static_cast<std::size_t>(n), kUntracked) {}
  bool tracked(index_t v) const { return state_[v] != kUntracked; }
  bool locked(index_t v) const { return state_[v] == kLocked; }
  std::int64_t gain(index_t v) const { return gain_[v]; }
  void insert(index_t v, std::int64_t gain) {
    gain_[v] = gain;
    state_[v] = kTracked;
    heap_.emplace(gain, v);
  }
  void add(index_t v, std::int64_t delta) {
    gain_[v] += delta;
    heap_.emplace(gain_[v], v);
  }
  template <class Feasible>
  index_t next(Feasible feasible) {
    while (!heap_.empty()) {
      const auto [gain, v] = heap_.top();
      heap_.pop();
      if (locked(v) || gain != gain_[v]) continue;  // stale
      if (!feasible(v)) {
        deferred_.emplace_back(gain, v);
        continue;
      }
      state_[v] = kLocked;
      return v;
    }
    return -1;
  }
  void after_move() {
    for (const auto& entry : deferred_) heap_.push(entry);
    deferred_.clear();
  }

 private:
  enum State : char { kUntracked, kTracked, kLocked };
  std::vector<std::int64_t> gain_;
  std::vector<State> state_;
  std::priority_queue<std::pair<std::int64_t, index_t>> heap_;
  std::vector<std::pair<std::int64_t, index_t>> deferred_;
};

TEST(FmGainQueue, PopsInTheLazyHeapOrder) {
  std::mt19937_64 rng(2023);
  // Gains from a narrow range, so most keys tie on gain and break on id.
  auto draw = [&rng] { return static_cast<std::int64_t>(rng() % 7) - 3; };
  FmGainQueue queue;  // reused across trials, as across FM passes
  std::int64_t moves = 0;
  std::int64_t exhausted_with_deferred = 0;
  std::int64_t deferred_updates = 0;
  std::int64_t moves_from_outside = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto n = static_cast<index_t>(1 + rng() % 64);
    std::vector<index_t> side(static_cast<std::size_t>(n));
    std::vector<index_t> weight(static_cast<std::size_t>(n));
    std::int64_t weight0 = 0;
    for (index_t v = 0; v < n; ++v) {
      side[v] = static_cast<index_t>(rng() % 2);
      weight[v] = static_cast<index_t>(1 + rng() % 8);
      if (side[v] == 0) weight0 += weight[v];
    }
    // A narrow balance window: many moves are deferred, then readmitted.
    // Every third trial starts part 0 below or above its window, so a
    // move must be heavy enough to reach it: the lower weight bound binds.
    // Every tenth trial has no window at all.
    std::int64_t low = weight0 - static_cast<std::int64_t>(rng() % 9);
    std::int64_t high = weight0 + static_cast<std::int64_t>(rng() % 9);
    if (trial % 3 == 1) {
      low = weight0 + 1 + static_cast<std::int64_t>(rng() % 6);
      high = low + static_cast<std::int64_t>(rng() % 6);
    } else if (trial % 3 == 2) {
      high = weight0 - 1 - static_cast<std::int64_t>(rng() % 6);
      low = high - static_cast<std::int64_t>(rng() % 6);
    }
    const bool unbounded = trial % 10 == 0;
    auto feasible = [&](index_t v) {
      const std::int64_t after =
          side[v] == 0 ? weight0 - weight[v] : weight0 + weight[v];
      return unbounded || (after >= low && after <= high);
    };
    queue.reset(n);
    LazyGainHeap lazy(n);
    for (index_t v = 0; v < n; ++v) {
      if (rng() % 2 == 0) continue;
      const std::int64_t gain = draw();
      queue.insert(v, gain, side[v], weight[v]);
      lazy.insert(v, gain);
    }
    for (;;) {
      const bool outside = weight0 < low || weight0 > high;
      const index_t v =
          unbounded ? queue.pop() : queue.next(weight0, low, high);
      ASSERT_EQ(v, lazy.next(feasible)) << "trial " << trial;
      if (v < 0) break;
      ASSERT_EQ(queue.gain(v), lazy.gain(v));
      ++moves;
      if (outside && !unbounded) ++moves_from_outside;
      weight0 += side[v] == 0 ? -weight[v] : weight[v];
      side[v] = 1 - side[v];
      // The moved vertex's neighbours: untracked ones start with a gain,
      // tracked ones (queued or deferred) change by a delta, possibly 0.
      for (auto k = rng() % 6; k > 0; --k) {
        const auto u = static_cast<index_t>(rng() % static_cast<unsigned>(n));
        ASSERT_EQ(queue.locked(u), lazy.locked(u));
        if (queue.locked(u)) continue;
        const std::int64_t gain = draw();
        if (queue.tracked(u)) {
          if (queue.deferred(u)) ++deferred_updates;
          queue.add(u, gain);
          lazy.add(u, gain);
        } else {
          queue.insert(u, gain, side[u], weight[u]);
          lazy.insert(u, gain);
        }
      }
      lazy.after_move();
    }
    for (index_t v = 0; v < n; ++v) {
      if (queue.tracked(v) && !queue.locked(v)) {
        ++exhausted_with_deferred;
        break;
      }
    }
  }
  EXPECT_GT(moves, 2000);
  // Many passes end with vertices still deferred, so deferral is exercised;
  // deferred vertices change gain before they rejoin; and part 0 often
  // starts outside its window.
  EXPECT_GT(exhausted_with_deferred, 100);
  EXPECT_GT(deferred_updates, 200);
  EXPECT_GT(moves_from_outside, 100);
}

// Greedy graph growing as it was before the restart cursor: the frontier is
// rescanned for its best (gain, earliest arrival) vertex, and a disconnected
// remainder restarts from the lowest unassigned vertex, scanning from 0.
std::vector<index_t> reference_grow_from(const Graph& g, index_t start,
                                         std::int64_t target_weight) {
  const index_t n = g.num_vertices();
  std::vector<index_t> part(static_cast<std::size_t>(n), 1);
  std::vector<index_t> frontier;  // in arrival order
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n), 0);
  std::vector<bool> queued(static_cast<std::size_t>(n), false);
  std::int64_t weight0 = 0;
  index_t next = start;
  while (next >= 0 && weight0 < target_weight) {
    const index_t v = next;
    part[v] = 0;
    weight0 += g.vertex_weight(v);
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (part[u] == 0) continue;
      gain[u] += 2 * g.edge_weight(base + static_cast<offset_t>(k));
      if (!queued[u]) {
        queued[u] = true;
        frontier.push_back(u);
      }
    }
    std::size_t best = frontier.size();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const index_t u = frontier[i];
      if (part[u] == 1 &&
          (best == frontier.size() || gain[u] > gain[frontier[best]])) {
        best = i;
      }
    }
    next = best < frontier.size() ? frontier[best] : -1;
    if (next < 0 && weight0 < target_weight) {
      for (index_t u = 0; u < n; ++u) {
        if (part[u] == 1) {
          next = u;
          break;
        }
      }
    }
  }
  return part;
}

TEST(GreedyGrowing, RestartCursorMatchesScanFromZero) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    // Most vertices isolated: a few small random clusters among them.
    const auto n = static_cast<index_t>(200 + rng() % 800);
    std::vector<std::vector<index_t>> adjacency(static_cast<std::size_t>(n));
    for (auto e = rng() % static_cast<unsigned>(n / 4); e > 0; --e) {
      const auto a = static_cast<index_t>(rng() % static_cast<unsigned>(n));
      const auto b = static_cast<index_t>(
          (a + 1 + rng() % 6) % static_cast<unsigned>(n));
      adjacency[a].push_back(b);
      adjacency[b].push_back(a);
    }
    CsrArray<offset_t> adj_ptr(1, 0);
    CsrArray<index_t> adj;
    for (auto& list : adjacency) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      adj.insert(adj.end(), list.begin(), list.end());
      adj_ptr.push_back(static_cast<offset_t>(adj.size()));
    }
    const Graph g(n, std::move(adj_ptr), std::move(adj));
    const double fraction = 0.2 + 0.6 * static_cast<double>(rng() % 100) / 100;
    const std::uint64_t seed = rng();

    // greedy_graph_growing_bisection's trials, with the reference growing.
    const std::int64_t target = static_cast<std::int64_t>(
        static_cast<double>(g.total_vertex_weight()) * fraction + 0.5);
    std::mt19937_64 trial_rng(seed);
    PeripheralSearch search(g);
    std::vector<index_t> expected;
    std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
    for (int t = 0; t < 4; ++t) {
      std::uniform_int_distribution<index_t> dist(0, n - 1);
      std::vector<index_t> part =
          reference_grow_from(g, search.run(dist(trial_rng)), target);
      const std::int64_t cut = compute_edge_cut(g, part);
      if (cut < best_cut) {
        best_cut = cut;
        expected = std::move(part);
      }
    }
    EXPECT_EQ(greedy_graph_growing_bisection(g, fraction, seed), expected)
        << "trial " << trial;
  }
}

TEST(FmRefine, NeverWorsensCutAndRespectsBalance) {
  const Graph g = Graph::from_matrix(random_symmetric(200, 5.0, 3));
  std::vector<index_t> part(static_cast<std::size_t>(g.num_vertices()));
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    part[static_cast<std::size_t>(v)] = (v * 7) % 2;
  }
  const std::int64_t before = compute_edge_cut(g, part);
  BisectionBalance balance;
  balance.min_weight0 = g.num_vertices() * 2 / 5;
  balance.max_weight0 = g.num_vertices() * 3 / 5;
  const std::int64_t improvement = fm_refine_bisection(g, part, balance, 8);
  const std::int64_t after = compute_edge_cut(g, part);
  EXPECT_EQ(before - after, improvement);
  EXPECT_GE(improvement, 0);
  std::int64_t weight0 = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += 1;
  }
  EXPECT_GE(weight0, balance.min_weight0);
  EXPECT_LE(weight0, balance.max_weight0);
}

TEST(Bisection, GridCutNearOptimal) {
  // Bisecting an n x n grid optimally cuts n edges; the multilevel
  // partitioner should be within a small factor.
  const index_t side = 24;
  const Graph g = Graph::from_matrix(grid_laplacian_2d(side, side));
  PartitionOptions options;
  const PartitionResult result = bisect_graph(g, 0.5, options);
  EXPECT_LE(result.cut, 3 * side);
  EXPECT_LE(result.imbalance, 1.0 + 2 * options.imbalance_tolerance);
}

TEST(KwayPartition, BalancedForNonPowerOfTwoParts) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(30, 30));
  for (index_t parts : {3, 6, 12, 48, 72}) {
    PartitionOptions options;
    options.num_parts = parts;
    const PartitionResult result = partition_graph(g, options);
    EXPECT_EQ(*std::max_element(result.part.begin(), result.part.end()) + 1,
              parts);
    EXPECT_LE(result.imbalance, 1.35) << parts << " parts";
  }
}

TEST(KwayPartition, CutGrowsWithParts) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(24, 24));
  std::int64_t previous = 0;
  for (index_t parts : {2, 8, 32}) {
    PartitionOptions options;
    options.num_parts = parts;
    const PartitionResult result = partition_graph(g, options);
    EXPECT_GT(result.cut, previous);
    previous = result.cut;
  }
}

// The study's Table 2 core counts, in the order the machines name them.
const std::vector<index_t> kStudyPartCounts = {32, 72, 64, 16, 48, 128};

// The shared recursion must reproduce every single-count partition exactly.
void expect_shared_matches_separate(
    const Graph& g, const std::vector<index_t>& counts = kStudyPartCounts) {
  PartitionOptions options;
  const std::vector<PartitionResult> shared =
      partition_graph(g, counts, options);
  ASSERT_EQ(shared.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    options.num_parts = counts[i];
    const PartitionResult separate = partition_graph(g, options);
    EXPECT_EQ(shared[i].part, separate.part) << counts[i];
    EXPECT_EQ(shared[i].num_parts, separate.num_parts);
    EXPECT_EQ(shared[i].cut, separate.cut) << counts[i];
  }
}

TEST(SharedKway, MatchesSeparateCallsOnMesh) {
  expect_shared_matches_separate(
      Graph::from_matrix(grid_laplacian_2d(40, 40)));
}

TEST(SharedKway, MatchesSeparateCallsOnRmat) {
  expect_shared_matches_separate(
      Graph::from_matrix(gen_rmat(10, 8, 0.57, 0.19, 0.19, 3)));
}

TEST(SharedKway, MatchesSeparateCallsWithFewerVerticesThanParts) {
  expect_shared_matches_separate(Graph::from_matrix(grid_laplacian_2d(5, 6)));
}

TEST(SharedKway, MatchesSeparateCallsOnOneVertex) {
  expect_shared_matches_separate(Graph::from_matrix(grid_laplacian_2d(1, 1)));
}

TEST(SharedKway, MatchesSeparateCallsOnDisconnectedGraph) {
  // Two disjoint grids plus isolated vertices (a diagonal-only block).
  CooMatrix coo(500, 500);
  const CsrMatrix grid = grid_laplacian_2d(12, 12);
  for (index_t block = 0; block < 2; ++block) {
    const index_t base = block * grid.num_rows();
    for (index_t i = 0; i < grid.num_rows(); ++i) {
      for (index_t j : grid.row_cols(i)) coo.add(base + i, base + j, 1.0);
    }
  }
  for (index_t i = 2 * grid.num_rows(); i < 500; ++i) coo.add(i, i, 1.0);
  expect_shared_matches_separate(Graph::from_matrix(CsrMatrix::from_coo(coo)));
}

TEST(SharedKway, MatchesSeparateCallsForMixedCounts) {
  // One part, a duplicate, and counts whose root fractions share a
  // numerator but not a value (1/2, 1/3; 2/4, 2/5): only equal reduced
  // fractions may share a bisection.
  expect_shared_matches_separate(Graph::from_matrix(grid_laplacian_2d(20, 20)),
                                 {1, 2, 3, 3, 4, 5, 6, 7, 9, 12});
}

#if defined(ORDO_OBS_ENABLED)
TEST(SharedKway, SharesBisectionsAcrossStudyCounts) {
  // 15 + 31 + 47 + 63 + 71 + 127 = 354 bisections for six separate calls;
  // the shared tree needs the 127 of the 128-way tree (16, 32 and 64 are its
  // prefixes), 32 more for 48 (below its 4 shared levels) and 64 for 72
  // (below its 3): 223.
  const Graph g = Graph::from_matrix(grid_laplacian_2d(30, 30));
  obs::Counter& bisections = obs::counter("partition.gp.bisections");
  const std::int64_t before_shared = bisections.value();
  partition_graph(g, kStudyPartCounts, PartitionOptions{});
  EXPECT_EQ(bisections.value() - before_shared, 223);

  const std::int64_t before_separate = bisections.value();
  for (index_t parts : kStudyPartCounts) {
    PartitionOptions options;
    options.num_parts = parts;
    partition_graph(g, options);
  }
  EXPECT_EQ(bisections.value() - before_separate, 354);
}
#endif

#if defined(ORDO_OBS_ENABLED)
TEST(FmGainQueue, DefersLittleOnRmatHubs) {
  // GP at 4 parts on spmv_cache's R-MAT graph. Re-popping every
  // balance-blocked vertex after each move made 2.67 M deferrals at
  // partitioner seed 1 and 12.2 M at seed 3; the bounds are twice what the
  // two-sided queue makes.
  const CsrMatrix a = gen_rmat(14, 8, 0.57, 0.19, 0.19, 2023);
  const std::pair<std::uint64_t, std::int64_t> cases[] = {{1, 27000},
                                                          {3, 620000}};
  obs::Counter& deferrals = obs::counter("partition.fm.deferrals");
  for (const auto& [seed, bound] : cases) {
    ReorderOptions options;
    options.gp_parts = 4;
    options.seed = seed;
    const std::int64_t before = deferrals.value();
    compute_ordering(a, OrderingKind::kGp, options);
    const std::int64_t made = deferrals.value() - before;
    EXPECT_LE(made, bound) << "partitioner seed " << seed;
  }
}
#endif

TEST(Separator, DisconnectsTheParts) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(16, 16));
  PartitionOptions options;
  const PartitionResult bisection = bisect_graph(g, 0.5, options);
  const auto separator = vertex_separator_from_bisection(g, bisection.part);
  // No edge may connect part 0 to part 1 once separator vertices are gone.
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (separator[static_cast<std::size_t>(v)]) continue;
    for (index_t u : g.neighbors(v)) {
      if (separator[static_cast<std::size_t>(u)]) continue;
      EXPECT_EQ(bisection.part[static_cast<std::size_t>(v)],
                bisection.part[static_cast<std::size_t>(u)]);
    }
  }
  // Separator should be small on a grid (O(side)).
  index_t separator_size = 0;
  for (bool in : separator) separator_size += in ? 1 : 0;
  EXPECT_LE(separator_size, 64);
}

TEST(Hypergraph, ColumnNetStructure) {
  // 3x3 matrix: column 0 has 2 nonzeros -> one net; single-entry columns
  // are dropped.
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(2, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  const Hypergraph h = Hypergraph::column_net(CsrMatrix::from_coo(coo));
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_nets(), 1);
  EXPECT_EQ(h.num_pins(), 2);
  EXPECT_EQ(h.vertex_nets(1).size(), 0u);
}

TEST(Hypergraph, CutMetricsOnKnownPartition) {
  // Two nets: {0,1} and {0,1,2}. Partition {0}|{1,2}: both nets cut;
  // connectivity-1 = 1 + 1.
  Hypergraph h(3, {0, 2, 5}, {0, 1, 0, 1, 2}, {}, {});
  const std::vector<index_t> part{0, 1, 1};
  EXPECT_EQ(compute_cut_nets(h, part), 2);
  EXPECT_EQ(compute_connectivity_minus_one(h, part, 2), 2);
  const std::vector<index_t> together{0, 0, 0};
  EXPECT_EQ(compute_cut_nets(h, together), 0);
}

TEST(HypergraphCoarsening, PreservesWeightAndDropsDegenerateNets) {
  const CsrMatrix a = random_symmetric(200, 4.0, 8);
  const Hypergraph h = Hypergraph::column_net(a);
  const HypergraphCoarseLevel level = coarsen_hypergraph_once(h, 5);
  EXPECT_EQ(level.hypergraph.total_vertex_weight(), h.total_vertex_weight());
  EXPECT_LE(level.hypergraph.num_vertices(), h.num_vertices());
  for (index_t e = 0; e < level.hypergraph.num_nets(); ++e) {
    EXPECT_GE(level.hypergraph.net_pins(e).size(), 2u);
  }
}

TEST(HypergraphBisection, BalancedAndBetterThanRandom) {
  const CsrMatrix a = grid_laplacian_2d(20, 20);
  const Hypergraph h = Hypergraph::column_net(a);
  PartitionOptions options;
  const PartitionResult result = bisect_hypergraph(h, 0.5, options);
  EXPECT_LE(result.imbalance, 1.15);
  // Random bisection of a grid column-net hypergraph cuts nearly every net;
  // the partitioner should cut a small fraction.
  EXPECT_LT(result.cut, h.num_nets() / 4);
}

TEST(HypergraphKway, PartitionsInto128Parts) {
  const CsrMatrix a = random_symmetric(1600, 5.0, 4);
  const Hypergraph h = Hypergraph::column_net(a);
  PartitionOptions options;
  options.num_parts = 128;
  const PartitionResult result = partition_hypergraph(h, options);
  EXPECT_EQ(*std::max_element(result.part.begin(), result.part.end()) + 1,
            128);
  // Recursive bisection compounds the per-level tolerance (~1.05^7) plus
  // integer granularity at ~12 vertices per part.
  EXPECT_LE(result.imbalance, 1.7);
}

TEST(GraphGrowing, HitsWeightTarget) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(20, 20));
  const auto part = greedy_graph_growing_bisection(g, 0.25, 3);
  std::int64_t weight0 = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += 1;
  }
  EXPECT_NEAR(static_cast<double>(weight0), 100.0, 12.0);
}

}  // namespace
}  // namespace ordo
