// Shared helpers for ordo tests: small deterministic matrix builders.
#pragma once

#include <algorithm>
#include <random>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_ops.hpp"

namespace ordo::testing {

/// 5-point Laplacian stencil on an nx-by-ny grid (SPD, symmetric pattern).
inline CsrMatrix grid_laplacian_2d(index_t nx, index_t ny) {
  const index_t n = nx * ny;
  CooMatrix coo(n, n);
  auto id = [nx](index_t x, index_t y) { return y * nx + x; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      coo.add(id(x, y), id(x, y), 4.0);
      if (x + 1 < nx) coo.add_symmetric(id(x, y), id(x + 1, y), -1.0);
      if (y + 1 < ny) coo.add_symmetric(id(x, y), id(x, y + 1), -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// Erdős–Rényi-style random square matrix with about `avg_degree` nonzeros
/// per row plus a full diagonal. Unsymmetric pattern.
inline CsrMatrix random_square(index_t n, double avg_degree,
                               std::uint64_t seed) {
  CooMatrix coo(n, n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, n - 1);
  std::poisson_distribution<int> degree(avg_degree);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0 + static_cast<double>(i % 3));
    const int k = degree(rng);
    for (int e = 0; e < k; ++e) coo.add(i, dist(rng), -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

/// Symmetric version of random_square (pattern of R + Rᵀ).
inline CsrMatrix random_symmetric(index_t n, double avg_degree,
                                  std::uint64_t seed) {
  return symmetrize(random_square(n, avg_degree, seed));
}

/// Result of `degree_ordered_bfs`.
struct BfsResult {
  std::vector<index_t> order;   // visited vertices, in visit order
  std::vector<index_t> levels;  // level per vertex, -1 when unreachable
  index_t eccentricity = 0;     // index of the last (deepest) level
};

/// The Cuthill–McKee BFS as ordo once computed it, kept as a reference:
/// visits each level's vertices in ascending (degree, id) order, sorting
/// every level as it is reached.
inline BfsResult degree_ordered_bfs(const Graph& g, index_t start) {
  BfsResult result;
  result.levels.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<index_t> frontier{start};
  result.levels[static_cast<std::size_t>(start)] = 0;
  index_t level = 0;
  std::vector<index_t> next;
  while (!frontier.empty()) {
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

}  // namespace ordo::testing
