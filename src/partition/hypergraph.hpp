// Hypergraph structure for the column-net model.
//
// In the column-net model of a sparse matrix (Catalyurek & Aykanat), matrix
// rows become vertices and matrix columns become nets; net j pins every row
// that has a nonzero in column j. Partitioning the vertices while minimizing
// the number of cut nets groups rows so that few columns are shared across
// row blocks — the objective the paper's HP ordering uses (PaToH, cut-net
// metric).
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace ordo {

/// The arrays a Hypergraph is built from, plus the storage of its vertex
/// incidence, which the constructor fills (its old contents are ignored).
/// Builders that make many hypergraphs one after another take them back
/// with Hypergraph::release and refill them, so their allocations carry
/// over to the next hypergraph.
struct HypergraphArrays {
  std::vector<offset_t> net_ptr;
  std::vector<index_t> pins;
  std::vector<index_t> vertex_weights;  // empty => all ones
  std::vector<index_t> net_weights;     // empty => all ones
  std::vector<offset_t> vertex_net_ptr;
  std::vector<index_t> vertex_net_list;
};

class Hypergraph {
 public:
  Hypergraph() = default;

  /// The constructor below, from one bundle of arrays.
  Hypergraph(index_t num_vertices, HypergraphArrays arrays);

  /// Builds from pin lists: net_ptr/pins give, for each net, the vertices it
  /// connects. Vertex and net weights default to 1 when empty.
  Hypergraph(index_t num_vertices, std::vector<offset_t> net_ptr,
             std::vector<index_t> pins, std::vector<index_t> vertex_weights,
             std::vector<index_t> net_weights);

  /// Column-net hypergraph of a matrix: one vertex per row, one net per
  /// column that has at least two nonzeros (single-pin nets can never be cut
  /// and are dropped).
  static Hypergraph column_net(const CsrMatrix& a);

  index_t num_vertices() const { return num_vertices_; }
  index_t num_nets() const { return static_cast<index_t>(net_ptr_.size()) - 1; }
  offset_t num_pins() const { return net_ptr_.empty() ? 0 : net_ptr_.back(); }

  /// Vertices connected by net e.
  std::span<const index_t> net_pins(index_t e) const {
    return std::span<const index_t>(pins_).subspan(
        static_cast<std::size_t>(net_ptr_[e]),
        static_cast<std::size_t>(net_ptr_[e + 1] - net_ptr_[e]));
  }

  /// Nets incident to vertex v.
  std::span<const index_t> vertex_nets(index_t v) const {
    return std::span<const index_t>(vertex_net_list_).subspan(
        static_cast<std::size_t>(vertex_net_ptr_[v]),
        static_cast<std::size_t>(vertex_net_ptr_[v + 1] - vertex_net_ptr_[v]));
  }

  index_t vertex_weight(index_t v) const {
    return vertex_weights_.empty() ? 1 : vertex_weights_[v];
  }
  index_t net_weight(index_t e) const {
    return net_weights_.empty() ? 1 : net_weights_[e];
  }

  std::int64_t total_vertex_weight() const;

  /// Moves the arrays out, leaving a hypergraph of no vertices.
  HypergraphArrays release();

 private:
  void build_vertex_incidence();

  index_t num_vertices_ = 0;
  std::vector<offset_t> net_ptr_{0};
  std::vector<index_t> pins_;
  std::vector<offset_t> vertex_net_ptr_{0};
  std::vector<index_t> vertex_net_list_;
  std::vector<index_t> vertex_weights_;  // empty => all ones
  std::vector<index_t> net_weights_;     // empty => all ones
};

/// Number of cut nets (weighted): nets with pins in more than one part.
std::int64_t compute_cut_nets(const Hypergraph& h,
                              const std::vector<index_t>& part);

/// Connectivity-minus-one metric: sum over nets of (number of parts the net
/// spans - 1), weighted. This equals the off-diagonal nonzero-segment count
/// that PaToH's connectivity metric models.
std::int64_t compute_connectivity_minus_one(const Hypergraph& h,
                                            const std::vector<index_t>& part,
                                            index_t num_parts);

}  // namespace ordo
