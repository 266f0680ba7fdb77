#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "check/invariants.hpp"
#include "sparse/csr_ops.hpp"

namespace ordo {

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
  std::vector<offset_t> adj_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> adj;
  adj.reserve(static_cast<std::size_t>(s.num_nonzeros()));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j : s.row_cols(i)) {
      if (j != i) adj.push_back(j);
    }
    adj_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(adj.size());
  }
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

BfsResult bfs_degree_ordered(const Graph& g, index_t start) {
  BfsResult result;
  result.levels.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  result.order.reserve(static_cast<std::size_t>(g.num_vertices()));

  std::vector<index_t> frontier{start};
  result.levels[static_cast<std::size_t>(start)] = 0;
  index_t level = 0;
  std::vector<index_t> next;
  while (!frontier.empty()) {
    // Cuthill–McKee: within a level, visit vertices in ascending degree
    // order (ties broken by vertex id for determinism).
    std::sort(frontier.begin(), frontier.end(), [&](index_t a, index_t b) {
      const index_t da = g.degree(a), db = g.degree(b);
      return da != db ? da < db : a < b;
    });
    next.clear();
    for (index_t v : frontier) {
      result.order.push_back(v);
      for (index_t u : g.neighbors(v)) {
        if (result.levels[static_cast<std::size_t>(u)] < 0) {
          result.levels[static_cast<std::size_t>(u)] = level + 1;
          next.push_back(u);
        }
      }
    }
    result.eccentricity = level;
    frontier.swap(next);
    ++level;
  }
  return result;
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

index_t pseudo_peripheral_vertex(const Graph& g, index_t seed) {
  require(seed >= 0 && seed < g.num_vertices(),
          "pseudo_peripheral_vertex: seed out of range");
  // One level array and BFS queue serve every search; each search resets
  // only the vertices the previous one reached.
  std::vector<index_t> level(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<index_t> queue;
  // BFS from `start`: its eccentricity, and the minimum-(degree, id) vertex
  // of its deepest level. Levels are BFS distances, so no level is sorted.
  auto search = [&](index_t start) {
    for (index_t v : queue) level[static_cast<std::size_t>(v)] = -1;
    queue.assign(1, start);
    level[static_cast<std::size_t>(start)] = 0;
    index_t deepest = start;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const index_t v = queue[head];
      const index_t depth = level[static_cast<std::size_t>(v)];
      // Levels arrive in ascending order, so `depth` is never shallower.
      if (depth > level[static_cast<std::size_t>(deepest)] ||
          std::pair(g.degree(v), v) < std::pair(g.degree(deepest), deepest)) {
        deepest = v;
      }
      for (index_t u : g.neighbors(v)) {
        if (level[static_cast<std::size_t>(u)] < 0) {
          level[static_cast<std::size_t>(u)] = depth + 1;
          queue.push_back(u);
        }
      }
    }
    return std::pair(level[static_cast<std::size_t>(deepest)], deepest);
  };
  index_t current = seed;
  auto [eccentricity, candidate] = search(seed);
  // Move to a minimum-degree vertex of the deepest level while that raises
  // the eccentricity (George & Liu 1979).
  for (int iteration = 0; iteration < 16; ++iteration) {
    const auto [trial_eccentricity, trial_candidate] = search(candidate);
    if (trial_eccentricity <= eccentricity) break;
    current = candidate;
    eccentricity = trial_eccentricity;
    candidate = trial_candidate;
  }
  return current;
}

}  // namespace ordo
