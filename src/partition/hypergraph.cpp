#include "partition/hypergraph.hpp"

#include <algorithm>
#include <numeric>

namespace ordo {

Hypergraph::Hypergraph(index_t num_vertices, std::vector<offset_t> net_ptr,
                       std::vector<index_t> pins,
                       std::vector<index_t> vertex_weights,
                       std::vector<index_t> net_weights)
    : Hypergraph(num_vertices,
                 HypergraphArrays{std::move(net_ptr), std::move(pins),
                                  std::move(vertex_weights),
                                  std::move(net_weights), {}, {}}) {}

Hypergraph::Hypergraph(index_t num_vertices, HypergraphArrays arrays)
    : num_vertices_(num_vertices),
      net_ptr_(std::move(arrays.net_ptr)),
      pins_(std::move(arrays.pins)),
      vertex_net_ptr_(std::move(arrays.vertex_net_ptr)),
      vertex_net_list_(std::move(arrays.vertex_net_list)),
      vertex_weights_(std::move(arrays.vertex_weights)),
      net_weights_(std::move(arrays.net_weights)) {
  require(num_vertices_ >= 0, "Hypergraph: negative vertex count");
  require(!net_ptr_.empty() && net_ptr_.front() == 0 &&
              net_ptr_.back() == static_cast<offset_t>(pins_.size()),
          "Hypergraph: malformed net_ptr");
  for (index_t pin : pins_) {
    require(pin >= 0 && pin < num_vertices_, "Hypergraph: pin out of range");
  }
  require(vertex_weights_.empty() ||
              vertex_weights_.size() == static_cast<std::size_t>(num_vertices_),
          "Hypergraph: vertex weight count mismatch");
  require(net_weights_.empty() ||
              net_weights_.size() == net_ptr_.size() - 1,
          "Hypergraph: net weight count mismatch");
  build_vertex_incidence();
}

HypergraphArrays Hypergraph::release() {
  num_vertices_ = 0;
  return HypergraphArrays{std::move(net_ptr_),
                          std::move(pins_),
                          std::move(vertex_weights_),
                          std::move(net_weights_),
                          std::move(vertex_net_ptr_),
                          std::move(vertex_net_list_)};
}

void Hypergraph::build_vertex_incidence() {
  // Count, scan, then fill with vertex_net_ptr_[v] as v's cursor, which
  // leaves it at v + 1's start; a shift restores the starts.
  vertex_net_ptr_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (index_t pin : pins_) {
    vertex_net_ptr_[static_cast<std::size_t>(pin) + 1]++;
  }
  std::partial_sum(vertex_net_ptr_.begin(), vertex_net_ptr_.end(),
                   vertex_net_ptr_.begin());
  vertex_net_list_.resize(pins_.size());
  for (index_t e = 0; e < num_nets(); ++e) {
    for (index_t pin : net_pins(e)) {
      vertex_net_list_[static_cast<std::size_t>(
          vertex_net_ptr_[static_cast<std::size_t>(pin)]++)] = e;
    }
  }
  for (auto v = static_cast<std::size_t>(num_vertices_); v > 0; --v) {
    vertex_net_ptr_[v] = vertex_net_ptr_[v - 1];
  }
  vertex_net_ptr_[0] = 0;
}

Hypergraph Hypergraph::column_net(const CsrMatrix& a) {
  // Count pins per column, keeping only columns with >= 2 nonzeros.
  std::vector<offset_t> col_count(static_cast<std::size_t>(a.num_cols()), 0);
  for (index_t j : a.col_idx()) col_count[static_cast<std::size_t>(j)]++;

  std::vector<index_t> col_to_net(static_cast<std::size_t>(a.num_cols()), -1);
  std::vector<offset_t> net_ptr{0};
  for (index_t j = 0; j < a.num_cols(); ++j) {
    if (col_count[static_cast<std::size_t>(j)] >= 2) {
      col_to_net[static_cast<std::size_t>(j)] =
          static_cast<index_t>(net_ptr.size()) - 1;
      net_ptr.push_back(net_ptr.back() + col_count[static_cast<std::size_t>(j)]);
    }
  }

  std::vector<index_t> pins(static_cast<std::size_t>(net_ptr.back()));
  std::vector<offset_t> next(net_ptr.begin(), net_ptr.end() - 1);
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      const index_t e = col_to_net[static_cast<std::size_t>(j)];
      if (e >= 0) {
        pins[static_cast<std::size_t>(next[static_cast<std::size_t>(e)]++)] = i;
      }
    }
  }
  return Hypergraph(a.num_rows(), std::move(net_ptr), std::move(pins), {}, {});
}

std::int64_t Hypergraph::total_vertex_weight() const {
  if (vertex_weights_.empty()) return num_vertices_;
  return std::accumulate(vertex_weights_.begin(), vertex_weights_.end(),
                         std::int64_t{0});
}

std::int64_t compute_cut_nets(const Hypergraph& h,
                              const std::vector<index_t>& part) {
  require(part.size() == static_cast<std::size_t>(h.num_vertices()),
          "compute_cut_nets: partition size mismatch");
  std::int64_t cut = 0;
  for (index_t e = 0; e < h.num_nets(); ++e) {
    const auto pins = h.net_pins(e);
    if (pins.empty()) continue;
    const index_t first = part[static_cast<std::size_t>(pins.front())];
    for (index_t pin : pins) {
      if (part[static_cast<std::size_t>(pin)] != first) {
        cut += h.net_weight(e);
        break;
      }
    }
  }
  return cut;
}

std::int64_t compute_connectivity_minus_one(const Hypergraph& h,
                                            const std::vector<index_t>& part,
                                            index_t num_parts) {
  require(part.size() == static_cast<std::size_t>(h.num_vertices()),
          "compute_connectivity_minus_one: partition size mismatch");
  std::int64_t total = 0;
  std::vector<index_t> seen_at(static_cast<std::size_t>(num_parts), -1);
  for (index_t e = 0; e < h.num_nets(); ++e) {
    index_t spanned = 0;
    for (index_t pin : h.net_pins(e)) {
      const index_t p = part[static_cast<std::size_t>(pin)];
      if (seen_at[static_cast<std::size_t>(p)] != e) {
        seen_at[static_cast<std::size_t>(p)] = e;
        ++spanned;
      }
    }
    if (spanned > 1) total += static_cast<std::int64_t>(spanned - 1) *
                              h.net_weight(e);
  }
  return total;
}

}  // namespace ordo
