// Undirected adjacency graph of a (structurally symmetric) sparse matrix.
//
// Vertices correspond to rows/columns; an edge {u, v} exists when A(u, v) or
// A(v, u) is structurally nonzero and u != v. The graph is stored in CSR
// adjacency form and optionally carries vertex and edge weights, which the
// multilevel partitioner uses during coarsening.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// The arrays a Graph is built from. Builders that make many graphs one
/// after another take them back with Graph::release and refill them, so
/// their allocations carry over to the next graph.
struct GraphArrays {
  CsrArray<offset_t> adj_ptr;
  CsrArray<index_t> adj;
  std::vector<index_t> vertex_weights;  // empty => all ones
  std::vector<index_t> edge_weights;    // empty => all ones
};

class Graph {
 public:
  Graph() = default;

  /// The weighted constructor below, from one bundle of arrays.
  Graph(index_t num_vertices, GraphArrays arrays);

  /// Builds an unweighted graph from adjacency arrays. Self-loops must have
  /// been removed and each edge must appear in both endpoint lists.
  Graph(index_t num_vertices, CsrArray<offset_t> adj_ptr,
        CsrArray<index_t> adj);

  /// Weighted constructor used by the coarsening phase of the partitioner.
  Graph(index_t num_vertices, CsrArray<offset_t> adj_ptr,
        CsrArray<index_t> adj, std::vector<index_t> vertex_weights,
        std::vector<index_t> edge_weights);

  /// Builds the undirected graph of a square matrix. If the pattern is not
  /// symmetric it is symmetrized first; self-loops (diagonal entries) are
  /// dropped.
  static Graph from_matrix(const CsrMatrix& a);

  index_t num_vertices() const { return num_vertices_; }
  offset_t num_adjacency_entries() const {
    return adj_ptr_.empty() ? 0 : adj_ptr_.back();
  }
  /// Number of undirected edges (each stored twice in the adjacency arrays).
  offset_t num_edges() const { return num_adjacency_entries() / 2; }

  std::span<const offset_t> adj_ptr() const { return adj_ptr_; }
  std::span<const index_t> adj() const { return adj_; }

  /// Neighbours of vertex v.
  std::span<const index_t> neighbors(index_t v) const {
    return std::span<const index_t>(adj_).subspan(
        static_cast<std::size_t>(adj_ptr_[v]),
        static_cast<std::size_t>(adj_ptr_[v + 1] - adj_ptr_[v]));
  }

  index_t degree(index_t v) const {
    return static_cast<index_t>(adj_ptr_[v + 1] - adj_ptr_[v]);
  }

  bool has_weights() const { return !vertex_weights_.empty(); }

  index_t vertex_weight(index_t v) const {
    return vertex_weights_.empty() ? 1 : vertex_weights_[v];
  }
  index_t edge_weight(offset_t e) const {
    return edge_weights_.empty() ? 1 : edge_weights_[static_cast<std::size_t>(e)];
  }

  /// Total vertex weight of the graph.
  std::int64_t total_vertex_weight() const;

  /// Moves the arrays out, leaving a graph of no vertices.
  GraphArrays release();

 private:
  void validate() const;

  index_t num_vertices_ = 0;
  CsrArray<offset_t> adj_ptr_{0};
  CsrArray<index_t> adj_;
  std::vector<index_t> vertex_weights_;  // empty => all ones
  std::vector<index_t> edge_weights_;    // empty => all ones
};

/// George–Liu pseudo-peripheral vertex search over one graph, with its
/// scratch (a visited bitmap and two BFS queues) allocated once and reset
/// per search in O(vertices reached). One run costs O(vertices + edges) of
/// the seed's component, so a run per component costs O(n + m) in total.
/// The graph must outlive the search.
class PeripheralSearch {
 public:
  /// A search bound to no graph; call set_graph before run.
  PeripheralSearch() = default;
  explicit PeripheralSearch(const Graph& g) { set_graph(g); }

  /// Binds the search to `g`, keeping the scratch of earlier graphs: no
  /// allocation once the scratch has grown to g's size.
  void set_graph(const Graph& g);

  /// Starting from `seed`, repeatedly moves to the minimum-(degree, id)
  /// vertex of the deepest BFS level while that raises the eccentricity, and
  /// returns the last vertex that raised it. Afterwards `order()` and
  /// `level_starts()` describe the BFS from the returned vertex.
  index_t run(index_t seed);

  /// The returned vertex's component, in BFS visit order (levels ascending).
  std::span<const index_t> order() const {
    return std::span<const index_t>(accepted_.queue).first(accepted_.size);
  }
  /// Where each BFS level from the returned vertex starts in `order()`, plus
  /// a final entry `order().size()`: level l is order()[level_starts()[l],
  /// level_starts()[l + 1]).
  std::span<const offset_t> level_starts() const {
    return accepted_.level_starts;
  }
  /// Index of the deepest BFS level from the returned vertex.
  index_t eccentricity() const { return accepted_.eccentricity(); }

 private:
  struct Bfs {
    std::vector<index_t> queue;          // n slots; the first `size` used
    std::size_t size = 0;                // vertices the last search reached
    std::vector<offset_t> level_starts;  // see level_starts() above
    index_t eccentricity() const {
      return static_cast<index_t>(level_starts.size()) - 2;
    }
  };
  /// BFS from `start` into `bfs`; returns the minimum-(degree, id) vertex of
  /// the deepest level.
  index_t search(Bfs& bfs, index_t start);

  const Graph* g_ = nullptr;
  // One bit per vertex, set while a search runs and cleared (over the
  // vertices it reached) before the search returns.
  std::vector<std::uint64_t> visited_;
  Bfs accepted_;  // BFS from the current start vertex
  Bfs trial_;     // BFS from the candidate being tried
};

/// One search from `seed`: `PeripheralSearch(g).run(seed)`. Callers that
/// search the same graph more than once keep a `PeripheralSearch` instead.
index_t pseudo_peripheral_vertex(const Graph& g, index_t seed);

}  // namespace ordo
