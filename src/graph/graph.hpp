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

class Graph {
 public:
  Graph() = default;

  /// Builds an unweighted graph from adjacency arrays. Self-loops must have
  /// been removed and each edge must appear in both endpoint lists.
  Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
        std::vector<index_t> adj);

  /// Weighted constructor used by the coarsening phase of the partitioner.
  Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
        std::vector<index_t> adj, std::vector<index_t> vertex_weights,
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

 private:
  void validate() const;

  index_t num_vertices_ = 0;
  std::vector<offset_t> adj_ptr_{0};
  std::vector<index_t> adj_;
  std::vector<index_t> vertex_weights_;  // empty => all ones
  std::vector<index_t> edge_weights_;    // empty => all ones
};

/// Breadth-first search from `start`. Returns the level (distance) of every
/// vertex reachable from `start`; unreachable vertices get level -1.
std::vector<index_t> bfs_levels(const Graph& g, index_t start);

/// Connected components: returns a component id per vertex and the number of
/// components.
struct Components {
  std::vector<index_t> component;
  index_t count = 0;
};
Components connected_components(const Graph& g);

/// George–Liu pseudo-peripheral vertex search over one graph, with its
/// scratch (two level arrays and BFS queues) allocated once and reset per
/// search in O(vertices reached). One run costs O(vertices + edges) of the
/// seed's component, so a run per component costs O(n + m) in total. The
/// graph must outlive the search.
class PeripheralSearch {
 public:
  explicit PeripheralSearch(const Graph& g);

  /// Starting from `seed`, repeatedly moves to the minimum-(degree, id)
  /// vertex of the deepest BFS level while that raises the eccentricity, and
  /// returns the last vertex that raised it. Afterwards `order()` and
  /// `level()` describe the BFS from the returned vertex.
  index_t run(index_t seed);

  /// The returned vertex's component, in BFS visit order (levels ascending).
  std::span<const index_t> order() const { return accepted_.queue; }
  /// BFS distance of `v` from the returned vertex; `v` must be in `order()`.
  index_t level(index_t v) const {
    return accepted_.level[static_cast<std::size_t>(v)];
  }
  /// Index of the deepest BFS level from the returned vertex.
  index_t eccentricity() const { return accepted_.eccentricity(); }

 private:
  struct Bfs {
    std::vector<index_t> level;  // -1 outside the last search
    std::vector<index_t> queue;  // vertices the last search reached
    index_t eccentricity() const {
      return level[static_cast<std::size_t>(queue.back())];
    }
  };
  /// BFS from `start` into `bfs`; returns the minimum-(degree, id) vertex of
  /// the deepest level.
  index_t search(Bfs& bfs, index_t start) const;

  const Graph& g_;
  Bfs accepted_;  // BFS from the current start vertex
  Bfs trial_;     // BFS from the candidate being tried
};

/// One search from `seed`: `PeripheralSearch(g).run(seed)`. Callers that
/// search the same graph more than once keep a `PeripheralSearch` instead.
index_t pseudo_peripheral_vertex(const Graph& g, index_t seed);

}  // namespace ordo
