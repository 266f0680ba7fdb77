#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "check/invariants.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/parallel_rows.hpp"

namespace ordo {
namespace {

// How far ahead in its queue a BFS prefetches adjacency lists.
constexpr std::size_t kPrefetchVertices = 16;

}  // namespace

Graph::Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
             std::vector<index_t> adj)
    : num_vertices_(num_vertices),
      adj_ptr_(std::move(adj_ptr)),
      adj_(std::move(adj)) {
  validate();
}

Graph::Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
             std::vector<index_t> adj, std::vector<index_t> vertex_weights,
             std::vector<index_t> edge_weights)
    : num_vertices_(num_vertices),
      adj_ptr_(std::move(adj_ptr)),
      adj_(std::move(adj)),
      vertex_weights_(std::move(vertex_weights)),
      edge_weights_(std::move(edge_weights)) {
  validate();
  require(vertex_weights_.empty() ||
              vertex_weights_.size() == static_cast<std::size_t>(num_vertices_),
          "Graph: vertex weight count mismatch");
  require(edge_weights_.empty() || edge_weights_.size() == adj_.size(),
          "Graph: edge weight count mismatch");
}

void Graph::validate() const {
  // Structural contract only; the O(m log m) mirror-symmetry check runs at
  // the Graph::from_matrix seam under ORDO_CHECK (construction happens per
  // coarsening level, where re-checking symmetry every time would dominate).
  check::validate_adjacency_raw(num_vertices_, adj_ptr_, adj_,
                                /*check_symmetry=*/false, "Graph");
}

Graph Graph::from_matrix(const CsrMatrix& a) {
  require(a.is_square(), "Graph::from_matrix: matrix must be square");
  const CsrMatrix s = is_pattern_symmetric(a) ? a : symmetrize(a);
  const index_t n = s.num_rows();
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  // Row i keeps its entries but the diagonal one: count, scan, then fill,
  // each over rows on idle cores (DESIGN §21). The count finds the diagonal
  // by counting the entries below it, with no branch per entry.
  const auto has_diagonal = [&](std::size_t i) {
    const auto begin = static_cast<std::size_t>(row_ptr[i]);
    const auto end = static_cast<std::size_t>(row_ptr[i + 1]);
    std::size_t k = begin;
    for (std::size_t t = begin; t < end; ++t) {
      k += col_idx[t] < static_cast<index_t>(i) ? 1 : 0;
    }
    return k < end && col_idx[k] == static_cast<index_t>(i);
  };
  std::vector<offset_t> adj_ptr =
      parallel_row_offsets(static_cast<std::size_t>(n), [&](std::size_t i) {
        return row_ptr[i + 1] - row_ptr[i] - (has_diagonal(i) ? 1 : 0);
      });
  std::vector<index_t> adj(static_cast<std::size_t>(adj_ptr.back()));
  parallel_for_row_ranges(row_ptr, [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      auto out = static_cast<std::size_t>(adj_ptr[i]);
      for (auto k = static_cast<std::size_t>(row_ptr[i]);
           k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
        if (col_idx[k] != static_cast<index_t>(i)) adj[out++] = col_idx[k];
      }
    }
  });
  Graph g(n, std::move(adj_ptr), std::move(adj));
  // Every symmetric ordering assumes a mirror-complete adjacency; check it
  // once where the graph enters the system.
  ORDO_CHECK(validate_adjacency_raw(g.num_vertices(), g.adj_ptr(), g.adj(),
                                    /*check_symmetry=*/true,
                                    "Graph::from_matrix"));
  return g;
}

std::int64_t Graph::total_vertex_weight() const {
  if (vertex_weights_.empty()) return num_vertices_;
  return std::accumulate(vertex_weights_.begin(), vertex_weights_.end(),
                         std::int64_t{0});
}

std::vector<index_t> bfs_levels(const Graph& g, index_t start) {
  std::vector<index_t> levels(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<index_t> queue;
  levels[static_cast<std::size_t>(start)] = 0;
  queue.push(start);
  while (!queue.empty()) {
    const index_t v = queue.front();
    queue.pop();
    for (index_t u : g.neighbors(v)) {
      if (levels[static_cast<std::size_t>(u)] < 0) {
        levels[static_cast<std::size_t>(u)] =
            levels[static_cast<std::size_t>(v)] + 1;
        queue.push(u);
      }
    }
  }
  return levels;
}

Components connected_components(const Graph& g) {
  Components result;
  result.component.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<index_t> stack;
  for (index_t s = 0; s < g.num_vertices(); ++s) {
    if (result.component[static_cast<std::size_t>(s)] >= 0) continue;
    stack.push_back(s);
    result.component[static_cast<std::size_t>(s)] = result.count;
    while (!stack.empty()) {
      const index_t v = stack.back();
      stack.pop_back();
      for (index_t u : g.neighbors(v)) {
        if (result.component[static_cast<std::size_t>(u)] < 0) {
          result.component[static_cast<std::size_t>(u)] = result.count;
          stack.push_back(u);
        }
      }
    }
    result.count++;
  }
  return result;
}

PeripheralSearch::PeripheralSearch(const Graph& g) : g_(g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  accepted_.level.assign(n, -1);
  trial_.level.assign(n, -1);
}

index_t PeripheralSearch::search(Bfs& bfs, index_t start) const {
  // Reset only what this buffer's previous search reached. Levels are BFS
  // distances, so no level is sorted.
  for (index_t v : bfs.queue) bfs.level[static_cast<std::size_t>(v)] = -1;
  bfs.queue.assign(1, start);
  bfs.level[static_cast<std::size_t>(start)] = 0;
  index_t deepest = start;
  const auto adj_ptr = g_.adj_ptr();
  const auto adj = g_.adj();
  for (std::size_t head = 0; head < bfs.queue.size(); ++head) {
    // The queue already names the vertices visited next; prefetch the
    // adjacency of the one kPrefetchVertices ahead (DESIGN §18).
    if (head + kPrefetchVertices < bfs.queue.size()) {
      const auto ahead =
          static_cast<std::size_t>(bfs.queue[head + kPrefetchVertices]);
      __builtin_prefetch(adj.data() + adj_ptr[ahead]);
    }
    const index_t v = bfs.queue[head];
    const index_t depth = bfs.level[static_cast<std::size_t>(v)];
    // Levels arrive in ascending order, so `depth` is never shallower.
    if (depth > bfs.level[static_cast<std::size_t>(deepest)] ||
        std::pair(g_.degree(v), v) < std::pair(g_.degree(deepest), deepest)) {
      deepest = v;
    }
    for (index_t u : g_.neighbors(v)) {
      if (bfs.level[static_cast<std::size_t>(u)] < 0) {
        bfs.level[static_cast<std::size_t>(u)] = depth + 1;
        bfs.queue.push_back(u);
      }
    }
  }
  return deepest;
}

index_t PeripheralSearch::run(index_t seed) {
  require(seed >= 0 && seed < g_.num_vertices(),
          "PeripheralSearch::run: seed out of range");
  index_t current = seed;
  index_t candidate = search(accepted_, seed);
  // Move to a minimum-degree vertex of the deepest level while that raises
  // the eccentricity (George & Liu 1979). An accepted trial's BFS becomes
  // the current one by swapping buffers.
  for (int iteration = 0; iteration < 16; ++iteration) {
    const index_t trial_candidate = search(trial_, candidate);
    if (trial_.eccentricity() <= eccentricity()) break;
    current = candidate;
    candidate = trial_candidate;
    std::swap(accepted_, trial_);
  }
  return current;
}

index_t pseudo_peripheral_vertex(const Graph& g, index_t seed) {
  return PeripheralSearch(g).run(seed);
}

}  // namespace ordo
