#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "check/invariants.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/parallel_rows.hpp"

namespace ordo {
namespace {

// How far ahead in its queue a BFS prefetches: the adjacency offsets of
// the vertex kPrefetchOffsets ahead, then, once those have arrived, the
// adjacency list of the one kPrefetchAdjacency ahead (DESIGN §23).
constexpr std::size_t kPrefetchOffsets = 32;
constexpr std::size_t kPrefetchAdjacency = 12;

}  // namespace

Graph::Graph(index_t num_vertices, CsrArray<offset_t> adj_ptr,
             CsrArray<index_t> adj)
    : num_vertices_(num_vertices),
      adj_ptr_(std::move(adj_ptr)),
      adj_(std::move(adj)) {
  validate();
}

Graph::Graph(index_t num_vertices, CsrArray<offset_t> adj_ptr,
             CsrArray<index_t> adj, std::vector<index_t> vertex_weights,
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

Graph::Graph(index_t num_vertices, GraphArrays arrays)
    : Graph(num_vertices, std::move(arrays.adj_ptr), std::move(arrays.adj),
            std::move(arrays.vertex_weights), std::move(arrays.edge_weights)) {
}

GraphArrays Graph::release() {
  num_vertices_ = 0;
  return GraphArrays{std::move(adj_ptr_), std::move(adj_),
                     std::move(vertex_weights_), std::move(edge_weights_)};
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
  // by counting the entries below it, with no branch per entry. The fill
  // writes every slot of adj, so adj starts unwritten (DESIGN §23).
  const auto has_diagonal = [&](std::size_t i) {
    const auto begin = static_cast<std::size_t>(row_ptr[i]);
    const auto end = static_cast<std::size_t>(row_ptr[i + 1]);
    std::size_t k = begin;
    for (std::size_t t = begin; t < end; ++t) {
      k += col_idx[t] < static_cast<index_t>(i) ? 1 : 0;
    }
    return k < end && col_idx[k] == static_cast<index_t>(i);
  };
  CsrArray<offset_t> adj_ptr =
      parallel_row_offsets(static_cast<std::size_t>(n), [&](std::size_t i) {
        return row_ptr[i + 1] - row_ptr[i] - (has_diagonal(i) ? 1 : 0);
      });
  CsrArray<index_t> adj(static_cast<std::size_t>(adj_ptr.back()));
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

void PeripheralSearch::set_graph(const Graph& g) {
  g_ = &g;
  // Every search leaves the bitmap zero, so only new words need a value.
  visited_.resize((static_cast<std::size_t>(g.num_vertices()) + 63) / 64, 0);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  accepted_.queue.resize(n);
  trial_.queue.resize(n);
}

index_t PeripheralSearch::search(Bfs& bfs, index_t start) {
  // The queue holds the levels back to back; level_starts records where
  // each begins, so no per-vertex level is stored. "Visited" is one bit
  // per vertex: at n / 8 bytes the bitmap stays cache-resident on inputs
  // whose per-vertex arrays do not (DESIGN §23).
  const auto adj_ptr = g_->adj_ptr();
  const auto adj = g_->adj();
  index_t* const queue = bfs.queue.data();
  std::uint64_t* const visited = visited_.data();
  const auto visit = [&](index_t u) {
    std::uint64_t& word = visited[static_cast<std::size_t>(u) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  };
  visit(start);
  queue[0] = start;
  std::size_t tail = 1;
  bfs.level_starts.assign(1, 0);
  std::size_t level_end = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    if (head == level_end) {
      // Every vertex of the level that starts here is already queued.
      bfs.level_starts.push_back(static_cast<offset_t>(head));
      level_end = tail;
    }
    // The queue already names the vertices visited next: fetch the offsets
    // of one far ahead, and the adjacency of a nearer one, whose offsets
    // an earlier step fetched.
    if (head + kPrefetchOffsets < tail) {
      __builtin_prefetch(adj_ptr.data() + queue[head + kPrefetchOffsets]);
    }
    if (head + kPrefetchAdjacency < tail) {
      __builtin_prefetch(
          adj.data() + adj_ptr[static_cast<std::size_t>(
                           queue[head + kPrefetchAdjacency])]);
    }
    const auto v = static_cast<std::size_t>(queue[head]);
    for (offset_t k = adj_ptr[v]; k < adj_ptr[v + 1]; ++k) {
      const index_t u = adj[static_cast<std::size_t>(k)];
      if (visit(u)) queue[tail++] = u;
    }
  }
  bfs.level_starts.push_back(static_cast<offset_t>(tail));
  bfs.size = tail;
  // Every bit set in a reached vertex's word is this sweep's: zero it whole.
  for (std::size_t k = 0; k < tail; ++k) {
    visited[static_cast<std::size_t>(queue[k]) >> 6] = 0;
  }
  // The minimum-(degree, id) vertex of the deepest level.
  const auto deepest_first =
      static_cast<std::size_t>(bfs.level_starts[bfs.level_starts.size() - 2]);
  index_t deepest = queue[deepest_first];
  for (std::size_t k = deepest_first + 1; k < tail; ++k) {
    const index_t v = queue[k];
    if (std::pair(g_->degree(v), v) < std::pair(g_->degree(deepest), deepest)) {
      deepest = v;
    }
  }
  return deepest;
}

index_t PeripheralSearch::run(index_t seed) {
  require(g_ != nullptr && seed >= 0 && seed < g_->num_vertices(),
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
