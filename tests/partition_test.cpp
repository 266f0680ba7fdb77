// Tests for the multilevel graph and hypergraph partitioners: matching and
// contraction invariants, FM gain correctness, balance constraints, cut
// quality on structured graphs, and separator properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <random>
#include <string>

#include "check/check.hpp"
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
  // The packed keys order by (gain, id) at the ends of both ranges.
  constexpr std::int64_t kMaxGain = std::numeric_limits<std::int32_t>::max();
  constexpr index_t kTop = std::numeric_limits<index_t>::max();
  const std::pair<std::int64_t, index_t> ascending[] = {
      {-kMaxGain, 0},    {-kMaxGain, kTop - 1}, {-kMaxGain, kTop},
      {-1, kTop},        {0, 0},                {0, kTop},
      {1, 0},            {kMaxGain - 1, kTop},  {kMaxGain, 0},
      {kMaxGain, kTop - 1}, {kMaxGain, kTop}};
  for (std::size_t k = 1; k < std::size(ascending); ++k) {
    EXPECT_LT(FmGainQueue::key(ascending[k - 1].first, ascending[k - 1].second),
              FmGainQueue::key(ascending[k].first, ascending[k].second))
        << k;
  }

  std::mt19937_64 rng(2023);
  // Gains from a narrow range, so most keys tie on gain and break on id.
  // Every seventh trial draws them instead at the ends of int32,
  // ±(2^31 - 1) and the three values inside each, with updates that move
  // toward zero so they stay there.
  bool extreme = false;
  auto draw = [&rng, &extreme] {
    if (!extreme) return static_cast<std::int64_t>(rng() % 7) - 3;
    const auto inward = static_cast<std::int64_t>(rng() % 4);
    return rng() % 2 == 0 ? kMaxGain - inward : inward - kMaxGain;
  };
  auto delta_from = [&rng, &extreme, &draw](std::int64_t gain) {
    if (!extreme) return draw();
    const auto step = static_cast<std::int64_t>(rng() % 4);
    return gain > 0 ? -step : step;
  };
  std::int64_t extreme_moves = 0;
  FmGainQueue queue;  // reused across trials, as across FM passes
  std::int64_t moves = 0;
  std::int64_t exhausted_with_deferred = 0;
  std::int64_t deferred_updates = 0;
  std::int64_t moves_from_outside = 0;
  for (int trial = 0; trial < 600; ++trial) {
    extreme = trial % 7 == 3;
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
      if (extreme) ++extreme_moves;
      if (outside && !unbounded) ++moves_from_outside;
      weight0 += side[v] == 0 ? -weight[v] : weight[v];
      side[v] = 1 - side[v];
      // The moved vertex's neighbours: untracked ones start with a gain,
      // tracked ones (queued or deferred) change by a delta, possibly 0.
      for (auto k = rng() % 6; k > 0; --k) {
        const auto u = static_cast<index_t>(rng() % static_cast<unsigned>(n));
        ASSERT_EQ(queue.locked(u), lazy.locked(u));
        if (queue.locked(u)) continue;
        if (queue.tracked(u)) {
          if (queue.deferred(u)) ++deferred_updates;
          const std::int64_t delta = delta_from(queue.gain(u));
          queue.add(u, delta);
          lazy.add(u, delta);
        } else {
          const std::int64_t gain = draw();
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
  EXPECT_GT(extreme_moves, 200);
}

TEST(FmGainQueue, GainOutsideInt32Throws) {
  constexpr std::int64_t kMaxGain = std::numeric_limits<std::int32_t>::max();
  FmGainQueue queue;
  queue.reset(4);
  EXPECT_THROW(queue.insert(0, kMaxGain + 1, 0, 1), invalid_argument_error);
  EXPECT_THROW(queue.insert(1, -kMaxGain - 2, 1, 1), invalid_argument_error);
  EXPECT_THROW(FmGainQueue::key(std::int64_t{1} << 40, 3),
               invalid_argument_error);
  // An update past either end throws and leaves the gain as it was.
  queue.insert(2, kMaxGain, 0, 1);
  queue.insert(3, -kMaxGain - 1, 1, 1);
  EXPECT_THROW(queue.add(2, 1), invalid_argument_error);
  EXPECT_THROW(queue.add(3, -1), invalid_argument_error);
  EXPECT_EQ(queue.gain(2), kMaxGain);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_EQ(queue.pop(), -1);
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
    const PartitionResult result =
        partition_graph(g, {parts}, PartitionOptions{}).front();
    EXPECT_EQ(*std::max_element(result.part.begin(), result.part.end()) + 1,
              parts);
    EXPECT_LE(result.imbalance, 1.35) << parts << " parts";
  }
}

TEST(KwayPartition, CutGrowsWithParts) {
  const Graph g = Graph::from_matrix(grid_laplacian_2d(24, 24));
  std::int64_t previous = 0;
  for (index_t parts : {2, 8, 32}) {
    const PartitionResult result =
        partition_graph(g, {parts}, PartitionOptions{}).front();
    EXPECT_GT(result.cut, previous);
    previous = result.cut;
  }
}

// The study's Table 2 core counts, in the order the machines name them.
const std::vector<index_t> kStudyPartCounts = {32, 72, 64, 16, 48, 128};

// The shared recursion must reproduce every single-count partition exactly.
void expect_shared_matches_separate(
    const Graph& g, const std::vector<index_t>& counts = kStudyPartCounts) {
  const PartitionOptions options;
  const std::vector<PartitionResult> shared =
      partition_graph(g, counts, options);
  ASSERT_EQ(shared.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const PartitionResult separate =
        partition_graph(g, {counts[i]}, options).front();
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
    partition_graph(g, {parts}, PartitionOptions{});
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
  const PartitionResult result =
      partition_hypergraph(h, 128, PartitionOptions{});
  EXPECT_EQ(*std::max_element(result.part.begin(), result.part.end()) + 1,
            128);
  // Recursive bisection compounds the per-level tolerance (~1.05^7) plus
  // integer granularity at ~12 vertices per part.
  EXPECT_LE(result.imbalance, 1.7);
}

// HP's k-way driver on inputs at the edges of its recursion: every result
// must satisfy the partition contract, with every part id in range and the
// recorded imbalance a recount, at a count each side of the vertex count.
void expect_valid_hypergraph_kway(const CsrMatrix& a) {
  const Hypergraph h = Hypergraph::column_net(a);
  for (const index_t parts : {2, 7, 128}) {
    const PartitionResult result =
        partition_hypergraph(h, parts, PartitionOptions{});
    EXPECT_NO_THROW(check::validate_hypergraph_partition(
        h, result, parts, "partition_hypergraph"))
        << parts;
    for (const index_t p : result.part) {
      ASSERT_TRUE(p >= 0 && p < parts) << p << " of " << parts;
    }
    EXPECT_EQ(result.imbalance,
              compute_partition_imbalance(h, result.part, parts))
        << parts;
  }
}

TEST(HypergraphKway, ValidOnOneVertex) {
  expect_valid_hypergraph_kway(grid_laplacian_2d(1, 1));
}

TEST(HypergraphKway, ValidWithFewerVerticesThanParts) {
  expect_valid_hypergraph_kway(grid_laplacian_2d(5, 6));
}

TEST(HypergraphKway, ValidWithNoNets) {
  // A diagonal-only matrix: every column has one nonzero, so the
  // column-net hypergraph keeps no net.
  CooMatrix coo(300, 300);
  for (index_t i = 0; i < 300; ++i) coo.add(i, i, 1.0);
  const CsrMatrix diagonal = CsrMatrix::from_coo(coo);
  ASSERT_EQ(Hypergraph::column_net(diagonal).num_nets(), 0);
  expect_valid_hypergraph_kway(diagonal);
}

TEST(HypergraphKway, ValidOnTwoDisconnectedBlocks) {
  const CsrMatrix grid = grid_laplacian_2d(12, 12);
  CooMatrix coo(2 * grid.num_rows(), 2 * grid.num_rows());
  for (index_t block = 0; block < 2; ++block) {
    const index_t base = block * grid.num_rows();
    for (index_t i = 0; i < grid.num_rows(); ++i) {
      for (index_t j : grid.row_cols(i)) coo.add(base + i, base + j, 1.0);
    }
  }
  expect_valid_hypergraph_kway(CsrMatrix::from_coo(coo));
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

// ---------------------------------------------------------------------------
// Boundary seeding. The refiners seed each pass from a maintained boundary
// (graph) or cut-net list (hypergraph) instead of scanning every vertex or
// net. The references below are the refiners as they were, seeding every
// pass by a full scan; seeding the same set in another order must make the
// same moves, so parts and totals must match exactly.
// ---------------------------------------------------------------------------

void expect_same_tally(const FmTally& a, const FmTally& b,
                       const std::string& context) {
  EXPECT_EQ(a.passes, b.passes) << context;
  EXPECT_EQ(a.cut_improvement, b.cut_improvement) << context;
  EXPECT_EQ(a.moves, b.moves) << context;
  EXPECT_EQ(a.moves_kept, b.moves_kept) << context;
  EXPECT_EQ(a.deferrals, b.deferrals) << context;
}

// Graph FM with every pass seeded by a scan over all vertices.
FmTally reference_fm_refine(const Graph& g, std::vector<index_t>& part,
                            const BisectionBalance& balance, int max_passes) {
  const index_t n = g.num_vertices();
  FmGainQueue queue;
  std::vector<index_t> moves;
  std::int64_t weight0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[v] == 0) weight0 += g.vertex_weight(v);
  }
  auto flip = [&](index_t v) {
    weight0 += part[v] == 0 ? -g.vertex_weight(v) : g.vertex_weight(v);
    part[v] = 1 - part[v];
  };
  FmTally tally;
  for (int pass = 0; pass < max_passes; ++pass) {
    queue.reset(n);
    for (index_t v = 0; v < n; ++v) {
      for (index_t u : g.neighbors(v)) {
        if (part[u] != part[v]) {
          queue.insert(v, fm_move_gain(g, part, v), part[v],
                       g.vertex_weight(v));
          break;
        }
      }
    }
    moves.clear();
    std::int64_t cumulative = 0, best_cumulative = 0;
    std::size_t best_prefix = 0;
    const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;
    while (moves.size() - best_prefix <= stall_limit) {
      const index_t v =
          queue.next(weight0, balance.min_weight0, balance.max_weight0);
      if (v < 0) break;
      flip(v);
      cumulative += queue.gain(v);
      moves.push_back(v);
      if (cumulative > best_cumulative) {
        best_cumulative = cumulative;
        best_prefix = moves.size();
      }
      const auto neighbors = g.neighbors(v);
      const offset_t base = g.adj_ptr()[v];
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const index_t u = neighbors[k];
        if (queue.locked(u)) continue;
        if (!queue.tracked(u)) {
          queue.insert(u, fm_move_gain(g, part, u), part[u],
                       g.vertex_weight(u));
          continue;
        }
        const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
        queue.add(u, part[u] == part[v] ? -2 * w : 2 * w);
      }
    }
    for (std::size_t k = moves.size(); k > best_prefix; --k) {
      flip(moves[k - 1]);
    }
    ++tally.passes;
    tally.cut_improvement += best_cumulative;
    tally.moves += static_cast<std::int64_t>(moves.size());
    tally.moves_kept += static_cast<std::int64_t>(best_prefix);
    tally.deferrals += queue.deferrals();
    if (best_cumulative <= 0) break;
  }
  return tally;
}

// Hypergraph FM (cut-net metric) with every pass seeded by a scan over all
// nets.
FmTally reference_hypergraph_fm_refine(const Hypergraph& h,
                                       std::vector<index_t>& part,
                                       const BisectionBalance& balance,
                                       int max_passes) {
  const index_t n = h.num_vertices();
  std::vector<std::array<index_t, 2>> pins_in(
      static_cast<std::size_t>(h.num_nets()), {0, 0});
  for (index_t e = 0; e < h.num_nets(); ++e) {
    for (index_t pin : h.net_pins(e)) pins_in[e][part[pin]]++;
  }
  std::int64_t weight0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[v] == 0) weight0 += h.vertex_weight(v);
  }
  auto move_gain = [&](index_t v) {
    const index_t s = part[v];
    std::int64_t gain = 0;
    for (index_t e : h.vertex_nets(v)) {
      const index_t same = pins_in[e][s];
      const index_t other = pins_in[e][1 - s];
      if (same == 1 && other >= 1) gain += h.net_weight(e);
      if (other == 0 && same >= 2) gain -= h.net_weight(e);
    }
    return gain;
  };
  auto flip = [&](index_t v) {
    weight0 += part[v] == 0 ? -h.vertex_weight(v) : h.vertex_weight(v);
    part[v] = 1 - part[v];
  };
  FmGainQueue queue;
  std::vector<index_t> moves;
  std::vector<index_t> newly_boundary;
  FmTally tally;
  for (int pass = 0; pass < max_passes; ++pass) {
    queue.reset(n);
    auto insert = [&](index_t v) {
      queue.insert(v, move_gain(v), part[v], h.vertex_weight(v));
    };
    for (index_t e = 0; e < h.num_nets(); ++e) {
      if (pins_in[e][0] > 0 && pins_in[e][1] > 0) {
        for (index_t pin : h.net_pins(e)) {
          if (!queue.tracked(pin)) insert(pin);
        }
      }
    }
    moves.clear();
    std::int64_t cumulative = 0, best_cumulative = 0;
    std::size_t best_prefix = 0;
    const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;
    while (moves.size() - best_prefix <= stall_limit) {
      const index_t v =
          queue.next(weight0, balance.min_weight0, balance.max_weight0);
      if (v < 0) break;
      const index_t from = part[v];
      flip(v);
      cumulative += queue.gain(v);
      moves.push_back(v);
      if (cumulative > best_cumulative) {
        best_cumulative = cumulative;
        best_prefix = moves.size();
      }
      newly_boundary.clear();
      for (index_t e : h.vertex_nets(v)) {
        auto& counts = pins_in[e];
        const index_t f = counts[from];
        const index_t t = counts[1 - from];
        const index_t w = h.net_weight(e);
        if (f == 1 || f == 2 || t == 0 || t == 1) {
          for (index_t u : h.net_pins(e)) {
            if (queue.locked(u)) continue;
            if (!queue.tracked(u)) {
              newly_boundary.push_back(u);
              continue;
            }
            std::int64_t delta = 0;
            if (part[u] == from) {
              if (f == 2) delta += w;
              if (t == 0) delta += w;
            } else {
              if (f == 1) delta -= w;
              if (t == 1) delta -= w;
            }
            if (delta != 0) queue.add(u, delta);
          }
        }
        counts[from]--;
        counts[1 - from]++;
      }
      for (index_t u : newly_boundary) {
        if (!queue.tracked(u)) insert(u);
      }
    }
    for (std::size_t k = moves.size(); k > best_prefix; --k) {
      const index_t v = moves[k - 1];
      for (index_t e : h.vertex_nets(v)) {
        pins_in[e][part[v]]--;
        pins_in[e][1 - part[v]]++;
      }
      flip(v);
    }
    ++tally.passes;
    tally.cut_improvement += best_cumulative;
    tally.moves += static_cast<std::int64_t>(moves.size());
    tally.moves_kept += static_cast<std::int64_t>(best_prefix);
    tally.deferrals += queue.deferrals();
    if (best_cumulative <= 0) break;
  }
  return tally;
}

// The balance window bisect_graph and bisect_hypergraph give a target
// fraction.
BisectionBalance window(std::int64_t total, double fraction) {
  return BisectionBalance{
      static_cast<std::int64_t>(std::floor(total * fraction * (1.0 - 0.05))),
      static_cast<std::int64_t>(std::ceil(total * fraction * (1.0 + 0.05)))};
}

// A graph of `n` vertices, most of them isolated, with a few small random
// clusters among them.
Graph mostly_isolated_graph(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<index_t>> adjacency(static_cast<std::size_t>(n));
  for (auto e = rng() % static_cast<unsigned>(n / 3); e > 0; --e) {
    const auto a = static_cast<index_t>(rng() % static_cast<unsigned>(n));
    const auto b =
        static_cast<index_t>((a + 1 + rng() % 6) % static_cast<unsigned>(n));
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
  return Graph(n, std::move(adj_ptr), std::move(adj));
}

// The seeding tests' inputs: a shuffled mesh, an R-MAT graph and a graph
// of mostly isolated vertices.
std::vector<Graph> seeding_graphs() {
  const CsrMatrix mesh = gen_mesh2d(40, 40, 5);
  std::vector<Graph> graphs;
  graphs.push_back(Graph::from_matrix(
      permute_symmetric(mesh, random_permutation(mesh.num_rows(), 5))));
  graphs.push_back(Graph::from_matrix(gen_rmat(11, 8, 0.57, 0.19, 0.19, 3)));
  graphs.push_back(mostly_isolated_graph(900, 17));
  return graphs;
}

// Starting partitions for a level: greedy growing at two fractions, and a
// random assignment, whose boundary is most of the graph.
std::vector<std::pair<double, std::vector<index_t>>> starting_parts(
    const Graph& g, std::uint64_t seed) {
  std::vector<std::pair<double, std::vector<index_t>>> starts;
  starts.emplace_back(0.5, greedy_graph_growing_bisection(g, 0.5, seed));
  starts.emplace_back(0.3, greedy_graph_growing_bisection(g, 0.3, seed + 1));
  std::mt19937_64 rng(seed);
  std::vector<index_t> random(static_cast<std::size_t>(g.num_vertices()));
  for (index_t& p : random) p = static_cast<index_t>(rng() % 2);
  starts.emplace_back(0.5, std::move(random));
  return starts;
}

TEST(FmSeeding, GraphBoundarySeedingMatchesFullScan) {
  std::int64_t levels = 0, weighted = 0, passes = 0;
  FmScratch scratch;  // reused across calls, as a bisector reuses it
  for (const Graph& input : seeding_graphs()) {
    std::vector<CoarseLevel> hierarchy;
    const Graph* g = &input;
    for (std::uint64_t seed = 1;; ++seed) {
      ++levels;
      if (g->has_weights()) ++weighted;
      for (auto& [fraction, part] : starting_parts(*g, seed)) {
        const std::string context = "level of " +
                                    std::to_string(g->num_vertices()) +
                                    " vertices, seed " + std::to_string(seed);
        const BisectionBalance balance =
            window(g->total_vertex_weight(), fraction);
        std::vector<index_t> expected = part;
        const FmTally want = reference_fm_refine(*g, expected, balance, 8);
        collect_boundary(*g, part, scratch.boundary);
        const FmTally got = fm_refine_bisection(*g, part, balance, 8, scratch);
        EXPECT_EQ(part, expected) << context;
        expect_same_tally(got, want, context);
        passes += got.passes;
        // The boundary handed back is the refined partition's.
        std::vector<index_t> boundary = scratch.boundary;
        std::sort(boundary.begin(), boundary.end());
        std::vector<index_t> scanned;
        collect_boundary(*g, part, scanned);
        EXPECT_EQ(boundary, scanned) << context;
      }
      if (g->num_vertices() <= 40) break;
      CoarseLevel level = coarsen_once(*g, seed);
      if (level.graph.num_vertices() == g->num_vertices()) break;
      hierarchy.push_back(std::move(level));
      g = &hierarchy.back().graph;
    }
  }
  EXPECT_GE(levels, 12);
  EXPECT_GE(weighted, 9);
  EXPECT_GT(passes, 3 * levels);  // most calls run more than one pass
}

// bisect_graph as it was before boundary seeding: full-scan FM at every
// level, including the first pass after each projection.
std::vector<index_t> reference_bisect_graph(const Graph& g, double fraction,
                                            const PartitionOptions& options) {
  std::vector<CoarseLevel> hierarchy;
  const Graph* current = &g;
  std::uint64_t seed = options.seed;
  while (current->num_vertices() > options.coarsen_to) {
    CoarseLevel level = coarsen_once(*current, seed++);
    if (level.graph.num_vertices() >
        static_cast<index_t>(0.9 * current->num_vertices())) {
      break;
    }
    hierarchy.push_back(std::move(level));
    current = &hierarchy.back().graph;
  }
  std::vector<index_t> part =
      greedy_graph_growing_bisection(*current, fraction, seed);
  reference_fm_refine(*current, part,
                      window(current->total_vertex_weight(), fraction),
                      options.refine_passes);
  for (std::size_t level = hierarchy.size(); level > 0; --level) {
    const Graph& fine = level >= 2 ? hierarchy[level - 2].graph : g;
    std::vector<index_t> fine_part(
        static_cast<std::size_t>(fine.num_vertices()));
    for (index_t v = 0; v < fine.num_vertices(); ++v) {
      fine_part[v] = part[hierarchy[level - 1].fine_to_coarse[v]];
    }
    part = std::move(fine_part);
    reference_fm_refine(fine, part,
                        window(fine.total_vertex_weight(), fraction),
                        options.refine_passes);
  }
  return part;
}

TEST(FmSeeding, ProjectedBoundaryMatchesFullScanBisection) {
  // Each uncoarsening level's first pass is seeded from the coarse
  // boundary's constituents; the whole multilevel bisection must equal the
  // full-scan one. None of these inputs is degenerate, so the final repair
  // of an all-one-side split never applies.
  GraphBisector bisector;
  for (const Graph& g : seeding_graphs()) {
    for (const double fraction : {0.5, 0.3}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        PartitionOptions options;
        options.seed = seed;
        EXPECT_EQ(bisector.bisect(g, fraction, options),
                  reference_bisect_graph(g, fraction, options))
            << g.num_vertices() << " vertices, fraction " << fraction
            << ", seed " << seed;
      }
    }
  }
}

// The column-net hypergraph of a graph: one net per vertex, pinning it and
// its neighbours. A vertex with no neighbour has no net.
Hypergraph closed_neighbourhood_hypergraph(const Graph& g) {
  std::vector<offset_t> net_ptr{0};
  std::vector<index_t> pins;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) continue;
    pins.push_back(v);
    for (index_t u : g.neighbors(v)) pins.push_back(u);
    net_ptr.push_back(static_cast<offset_t>(pins.size()));
  }
  return Hypergraph(g.num_vertices(), std::move(net_ptr), std::move(pins), {},
                    {});
}

TEST(FmSeeding, CutNetSeedingMatchesFullScan) {
  std::int64_t levels = 0, passes = 0;
  HgFmScratch scratch;
  for (const Graph& graph : seeding_graphs()) {
    std::vector<HypergraphCoarseLevel> hierarchy;
    const Hypergraph input = closed_neighbourhood_hypergraph(graph);
    const Hypergraph* h = &input;
    for (std::uint64_t seed = 1;; ++seed) {
      ++levels;
      std::mt19937_64 rng(seed);
      std::vector<std::pair<double, std::vector<index_t>>> starts;
      std::vector<index_t> halves(static_cast<std::size_t>(h->num_vertices()));
      std::vector<index_t> random(halves.size());
      for (index_t v = 0; v < h->num_vertices(); ++v) {
        halves[v] = v < h->num_vertices() / 2 ? 0 : 1;
        random[v] = static_cast<index_t>(rng() % 2);
      }
      starts.emplace_back(0.5, std::move(halves));
      starts.emplace_back(0.3, std::move(random));
      for (auto& [fraction, part] : starts) {
        const std::string context = "level of " +
                                    std::to_string(h->num_vertices()) +
                                    " vertices, seed " + std::to_string(seed);
        const BisectionBalance balance =
            window(h->total_vertex_weight(), fraction);
        std::vector<index_t> expected = part;
        const FmTally want =
            reference_hypergraph_fm_refine(*h, expected, balance, 8);
        const FmTally got = hypergraph_fm_refine(*h, part, balance, 8, scratch);
        EXPECT_EQ(part, expected) << context;
        expect_same_tally(got, want, context);
        passes += got.passes;
      }
      if (h->num_vertices() <= 40) break;
      HypergraphCoarseLevel level = coarsen_hypergraph_once(*h, seed);
      if (level.hypergraph.num_vertices() == h->num_vertices()) break;
      hierarchy.push_back(std::move(level));
      h = &hierarchy.back().hypergraph;
    }
  }
  EXPECT_GE(levels, 12);
  EXPECT_GT(passes, 2 * levels);
}

// ND bisects its root with the graph GP partitions, the same seed and
// fraction 1/2, and every Table 2 count is even, so its root bisection is
// GP's root bisection. They differ only where GP's root fraction is not
// 1/2 (a count capped at an odd row count), where GP weights vertices by
// row nonzeros, or where ND stops at a leaf (ROADMAP).
TEST(NdRoot, EqualsGpRootBisection) {
  for (const CsrMatrix& a :
       {gen_mesh2d(48, 48, 5), gen_rmat(11, 8, 0.57, 0.19, 0.19, 3)}) {
    const Graph g = Graph::from_matrix(a);
    ASSERT_GT(g.num_vertices(), ReorderOptions{}.nd_leaf_size);
    for (const index_t count : kStudyPartCounts) {
      EXPECT_EQ(std::gcd(count / 2, count), count / 2) << count;
    }
    // ND's root subgraph: every vertex, in order, as dissect builds it.
    CsrArray<offset_t> adj_ptr(g.adj_ptr().begin(), g.adj_ptr().end());
    CsrArray<index_t> adj(g.adj().begin(), g.adj().end());
    const Graph nd_root(g.num_vertices(), std::move(adj_ptr), std::move(adj));
    for (const std::uint64_t seed : {1, 2023}) {
      PartitionOptions gp;
      gp.seed = seed;
      const PartitionResult gp_root = bisect_graph(g, 0.5, gp);
      EXPECT_EQ(bisect_graph(nd_root, 0.5, gp).part, gp_root.part);
      // And it is the root of GP's shared tree: two parts are that split.
      EXPECT_EQ(partition_graph(g, {2}, gp).front().part, gp_root.part);
    }
  }
}

}  // namespace
}  // namespace ordo
