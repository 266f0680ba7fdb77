#include "corpus/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "sparse/csr_ops.hpp"
#include "sparse/parallel_rows.hpp"

namespace ordo {
namespace {

// Diagonal value large enough to keep generated symmetric matrices
// positive-definite-like regardless of off-diagonal count.
value_t diag_for_degree(double degree) { return degree + 4.0; }

}  // namespace

CsrMatrix gen_mesh2d(index_t nx, index_t ny, int stencil) {
  require(stencil == 5 || stencil == 9, "gen_mesh2d: stencil must be 5 or 9");
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  // Rows are written directly, in column order: the neighbours in the
  // previous grid row, the point's own grid row, then the next grid row,
  // each left to right. The diagonal holds stencil - 1, axis neighbours -1
  // and (9-point only) diagonal neighbours -0.5. A row's length follows
  // from its point's position, so the offsets are a scan and the rows are
  // filled on idle cores, each into its own slots (DESIGN §23).
  const auto extent = [](index_t c, index_t size) -> offset_t {
    return 1 + (c > 0 ? 1 : 0) + (c + 1 < size ? 1 : 0);
  };
  CsrArray<offset_t> row_ptr = parallel_row_offsets(n, [&](std::size_t i) {
    const offset_t wx = extent(static_cast<index_t>(i % nx), nx);
    const offset_t wy = extent(static_cast<index_t>(i / nx), ny);
    return stencil == 9 ? wx * wy : wx + wy - 1;
  });
  CsrArray<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  CsrArray<value_t> values(col_idx.size());
  parallel_for_row_ranges(row_ptr, [&](std::size_t first, std::size_t last) {
    const auto lo = static_cast<std::size_t>(row_ptr[first]);
    const auto hi = static_cast<std::size_t>(row_ptr[last]);
    touch_pages_in_order(col_idx, lo, hi);
    touch_pages_in_order(values, lo, hi);
    for (std::size_t i = first; i < last; ++i) {
      const auto x = static_cast<index_t>(i % nx);
      const auto y = static_cast<index_t>(i / nx);
      auto out = static_cast<std::size_t>(row_ptr[i]);
      for (index_t dy = -1; dy <= 1; ++dy) {
        if (y + dy < 0 || y + dy >= ny) continue;
        for (index_t dx = -1; dx <= 1; ++dx) {
          if (x + dx < 0 || x + dx >= nx) continue;
          const bool corner = dx != 0 && dy != 0;
          if (corner && stencil == 5) continue;
          col_idx[out] = (y + dy) * nx + x + dx;
          values[out] = dx == 0 && dy == 0 ? static_cast<value_t>(stencil - 1)
                                           : (corner ? -0.5 : -1.0);
          ++out;
        }
      }
    }
  });
  return CsrMatrix(static_cast<index_t>(n), static_cast<index_t>(n),
                   std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix gen_mesh3d(index_t nx, index_t ny, index_t nz, int stencil) {
  require(stencil == 7 || stencil == 27,
          "gen_mesh3d: stencil must be 7 or 27");
  const index_t n = nx * ny * nz;
  CooMatrix coo(n, n);
  auto id = [nx, ny](index_t x, index_t y, index_t z) {
    return (z * ny + y) * nx + x;
  };
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        coo.add(id(x, y, z), id(x, y, z),
                static_cast<value_t>(stencil - 1));
        if (stencil == 7) {
          if (x + 1 < nx) coo.add_symmetric(id(x, y, z), id(x + 1, y, z), -1.0);
          if (y + 1 < ny) coo.add_symmetric(id(x, y, z), id(x, y + 1, z), -1.0);
          if (z + 1 < nz) coo.add_symmetric(id(x, y, z), id(x, y, z + 1), -1.0);
        } else {
          for (index_t dz = 0; dz <= 1; ++dz) {
            for (index_t dy = (dz == 0 ? 0 : -1); dy <= 1; ++dy) {
              for (index_t dx = (dz == 0 && dy == 0 ? 1 : -1); dx <= 1; ++dx) {
                const index_t x2 = x + dx, y2 = y + dy, z2 = z + dz;
                if (x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny || z2 >= nz)
                  continue;
                coo.add_symmetric(id(x, y, z), id(x2, y2, z2), -0.25);
              }
            }
          }
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_fem_blocked(index_t nodes_x, index_t nodes_y, int dofs) {
  require(dofs >= 1, "gen_fem_blocked: dofs must be positive");
  const index_t nodes = nodes_x * nodes_y;
  const index_t n = nodes * dofs;
  CooMatrix coo(n, n);
  auto node_id = [nodes_x](index_t x, index_t y) { return y * nodes_x + x; };
  auto couple = [&](index_t a, index_t b) {
    // Dense dofs-by-dofs block between nodes a and b.
    for (int p = 0; p < dofs; ++p) {
      for (int q = 0; q < dofs; ++q) {
        const index_t i = a * dofs + p;
        const index_t j = b * dofs + q;
        const value_t v = (a == b && p == q) ? 8.0 * dofs : -0.5;
        if (a == b) {
          coo.add(i, j, v);
        } else {
          coo.add(i, j, v);
          coo.add(j, i, v);
        }
      }
    }
  };
  for (index_t y = 0; y < nodes_y; ++y) {
    for (index_t x = 0; x < nodes_x; ++x) {
      couple(node_id(x, y), node_id(x, y));
      if (x + 1 < nodes_x) couple(node_id(x, y), node_id(x + 1, y));
      if (y + 1 < nodes_y) couple(node_id(x, y), node_id(x, y + 1));
      if (x + 1 < nodes_x && y + 1 < nodes_y) {
        couple(node_id(x, y), node_id(x + 1, y + 1));
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_road_network(index_t n, std::uint64_t seed) {
  CooMatrix coo(n, n);
  std::mt19937_64 rng(seed);
  // Points on a coarse grid. OSM node ids are *locally* clustered (nodes are
  // numbered along ways) but not globally tidy, so labels are shuffled
  // within windows plus a small fraction of global strays — real road
  // matrices gain only modestly from reordering (e.g. europe_osm +22% with
  // RCM in Table 5 of the paper).
  const index_t side = std::max<index_t>(
      2, static_cast<index_t>(std::sqrt(static_cast<double>(n))));
  std::vector<index_t> label(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  const index_t window = 256;
  for (index_t begin = 0; begin < n; begin += window) {
    const index_t end = std::min<index_t>(begin + window, n);
    std::shuffle(label.begin() + begin, label.begin() + end, rng);
  }
  std::uniform_int_distribution<index_t> anywhere(0, n - 1);
  for (index_t s = 0; s < n / 50; ++s) {
    std::swap(label[static_cast<std::size_t>(anywhere(rng))],
              label[static_cast<std::size_t>(anywhere(rng))]);
  }

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (index_t i = 0; i < n; ++i) {
    const index_t x = i % side;
    coo.add(label[static_cast<std::size_t>(i)],
            label[static_cast<std::size_t>(i)], diag_for_degree(3));
    // Connect to the right/down grid neighbour with high probability (road
    // segments), occasionally skip (dead ends / sparse rural areas).
    const index_t right = i + 1;
    if (x + 1 < side && right < n && uniform(rng) < 0.85) {
      coo.add_symmetric(label[static_cast<std::size_t>(i)],
                        label[static_cast<std::size_t>(right)], -1.0);
    }
    const index_t down = i + side;
    if (down < n && uniform(rng) < 0.55) {
      coo.add_symmetric(label[static_cast<std::size_t>(i)],
                        label[static_cast<std::size_t>(down)], -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_geometric(index_t n, double radius_factor, std::uint64_t seed) {
  // Random points in the unit square joined when within radius; grid-bucket
  // neighbour search keeps generation near-linear.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> px(static_cast<std::size_t>(n)),
      py(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    px[static_cast<std::size_t>(i)] = uniform(rng);
    py[static_cast<std::size_t>(i)] = uniform(rng);
  }
  const double radius =
      radius_factor / std::sqrt(static_cast<double>(std::max<index_t>(n, 1)));
  const index_t buckets = std::max<index_t>(
      1, static_cast<index_t>(1.0 / std::max(radius, 1e-9)));
  // Mesh generators emit points in sweep order, so delaunay-family matrices
  // arrive with reasonable locality: sort the points by grid bucket
  // (row-major sweep) before assigning indices.
  {
    std::vector<index_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), index_t{0});
    auto key = [&](index_t i) {
      const index_t bx = std::min<index_t>(
          buckets - 1,
          static_cast<index_t>(px[static_cast<std::size_t>(i)] * buckets));
      const index_t by = std::min<index_t>(
          buckets - 1,
          static_cast<index_t>(py[static_cast<std::size_t>(i)] * buckets));
      return by * buckets + bx;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](index_t a, index_t b) { return key(a) < key(b); });
    std::vector<double> sx(static_cast<std::size_t>(n)),
        sy(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      sx[static_cast<std::size_t>(i)] =
          px[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      sy[static_cast<std::size_t>(i)] =
          py[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    }
    px.swap(sx);
    py.swap(sy);
  }
  std::vector<std::vector<index_t>> grid(
      static_cast<std::size_t>(buckets) * buckets);
  auto bucket_of = [&](double x, double y) {
    const index_t bx = std::min<index_t>(buckets - 1,
                                         static_cast<index_t>(x * buckets));
    const index_t by = std::min<index_t>(buckets - 1,
                                         static_cast<index_t>(y * buckets));
    return by * buckets + bx;
  };
  for (index_t i = 0; i < n; ++i) {
    grid[static_cast<std::size_t>(bucket_of(px[static_cast<std::size_t>(i)],
                                            py[static_cast<std::size_t>(i)]))]
        .push_back(i);
  }

  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(6));
    const index_t bx = std::min<index_t>(
        buckets - 1,
        static_cast<index_t>(px[static_cast<std::size_t>(i)] * buckets));
    const index_t by = std::min<index_t>(
        buckets - 1,
        static_cast<index_t>(py[static_cast<std::size_t>(i)] * buckets));
    for (index_t dy = -1; dy <= 1; ++dy) {
      for (index_t dx = -1; dx <= 1; ++dx) {
        const index_t nx = bx + dx, ny = by + dy;
        if (nx < 0 || nx >= buckets || ny < 0 || ny >= buckets) continue;
        for (index_t j : grid[static_cast<std::size_t>(ny * buckets + nx)]) {
          if (j <= i) continue;
          const double ddx = px[static_cast<std::size_t>(i)] -
                             px[static_cast<std::size_t>(j)];
          const double ddy = py[static_cast<std::size_t>(i)] -
                             py[static_cast<std::size_t>(j)];
          if (ddx * ddx + ddy * ddy <= radius * radius) {
            coo.add_symmetric(i, j, -1.0);
          }
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_rmat(int scale, int edge_factor, double a, double b, double c,
                   std::uint64_t seed) {
  require(scale >= 1 && scale <= 26, "gen_rmat: scale out of range");
  const index_t n = index_t{1} << scale;
  const std::int64_t edges = static_cast<std::int64_t>(n) * edge_factor;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  CooMatrix coo(n, n);
  coo.reserve(2 * edges + n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, diag_for_degree(edge_factor));
  for (std::int64_t e = 0; e < edges; ++e) {
    index_t row = 0, col = 0;
    for (int level = 0; level < scale; ++level) {
      const double r = uniform(rng);
      row <<= 1;
      col <<= 1;
      if (r < a) {
        // top-left quadrant
      } else if (r < a + b) {
        col |= 1;
      } else if (r < a + b + c) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (row != col) coo.add_symmetric(row, col, -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_community(index_t n, index_t community_size, double inter_prob,
                        std::uint64_t seed) {
  require(community_size >= 2, "gen_community: community size too small");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<index_t> any(0, n - 1);
  CooMatrix coo(n, n);
  // Vertex labels are shuffled so communities are not contiguous in the
  // stored order — reordering should recover them.
  std::vector<index_t> label(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  std::shuffle(label.begin(), label.end(), rng);

  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(community_size / 2.0));
  }
  for (index_t start = 0; start < n; start += community_size) {
    const index_t end = std::min<index_t>(start + community_size, n);
    for (index_t i = start; i < end; ++i) {
      for (index_t j = i + 1; j < end; ++j) {
        if (uniform(rng) < 0.4) {
          coo.add_symmetric(label[static_cast<std::size_t>(i)],
                            label[static_cast<std::size_t>(j)], -1.0);
        }
      }
      if (uniform(rng) < inter_prob) {
        // Inter-community edges are mostly *local* in community space —
        // real co-purchase / social graphs have metric structure that a
        // good ordering can exploit.
        index_t j;
        if (uniform(rng) < 0.8) {
          const index_t offset =
              (any(rng) % (8 * community_size)) - 4 * community_size;
          j = std::clamp<index_t>(i + offset, 0, n - 1);
        } else {
          j = any(rng);
        }
        if (j != i) {
          coo.add_symmetric(label[static_cast<std::size_t>(i)],
                            label[static_cast<std::size_t>(j)], -1.0);
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_debruijn_chain(index_t n, double branch_prob,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<index_t> any(0, n - 1);
  CooMatrix coo(n, n);
  // Scrambled labels: k-mer ids carry no chain locality.
  std::vector<index_t> label(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  std::shuffle(label.begin(), label.end(), rng);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(2));
    if (i + 1 < n && uniform(rng) < 0.97) {
      coo.add_symmetric(label[static_cast<std::size_t>(i)],
                        label[static_cast<std::size_t>(i + 1)], -1.0);
    }
    if (uniform(rng) < branch_prob) {  // a branching k-mer
      const index_t j = any(rng);
      if (j != i) {
        coo.add_symmetric(label[static_cast<std::size_t>(i)],
                          label[static_cast<std::size_t>(j)], -1.0);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_circuit(index_t n, int dense_lines, double avg_degree,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> any(0, n - 1);
  std::poisson_distribution<int> degree(avg_degree);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(avg_degree));
    const int k = degree(rng);
    for (int e = 0; e < k; ++e) {
      // Components couple mostly to nearby nodes (netlist locality), with
      // occasional long-range nets.
      std::uniform_int_distribution<index_t> local(
          std::max<index_t>(0, i - 200), std::min<index_t>(n - 1, i + 200));
      const index_t j = (any(rng) % 10 == 0) ? any(rng) : local(rng);
      if (j != i) coo.add(i, j, -0.5);
    }
  }
  // Power/ground rails: rows/columns far denser than the rest, but with a
  // bounded fan-out (real circuit rails connect thousands of cells, not a
  // constant fraction of the netlist).
  const index_t rail_degree = std::min<index_t>(n / 4, 1200);
  for (int line = 0; line < dense_lines; ++line) {
    const index_t rail = any(rng);
    const index_t stride = std::max<index_t>(1, n / std::max<index_t>(rail_degree, 1));
    for (index_t j = rail % stride; j < n; j += stride) {
      if (j != rail) {
        coo.add(rail, j, -0.1);
        coo.add(j, rail, -0.1);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_cfd(index_t nx, index_t ny, index_t nz, int dofs,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const index_t cells = nx * ny * nz;
  const index_t n = cells * dofs;
  CooMatrix coo(n, n);
  auto cell_id = [nx, ny](index_t x, index_t y, index_t z) {
    return (z * ny + y) * nx + x;
  };
  auto couple = [&](index_t a, index_t b, bool both_ways) {
    for (int p = 0; p < dofs; ++p) {
      for (int q = 0; q < dofs; ++q) {
        const value_t v = (a == b && p == q) ? 10.0 * dofs : -0.3;
        coo.add(a * dofs + p, b * dofs + q, v);
        if (both_ways && a != b) coo.add(b * dofs + q, a * dofs + p, v);
      }
    }
  };
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t c = cell_id(x, y, z);
        couple(c, c, false);
        // Upwinded convection: downstream coupling is sometimes one-sided,
        // making the pattern mildly unsymmetric, as in HV15R.
        if (x + 1 < nx) couple(c, cell_id(x + 1, y, z), uniform(rng) < 0.7);
        if (y + 1 < ny) couple(c, cell_id(x, y + 1, z), uniform(rng) < 0.7);
        if (z + 1 < nz) couple(c, cell_id(x, y, z + 1), uniform(rng) < 0.7);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_kkt(index_t nx, index_t ny, index_t nz, std::uint64_t seed) {
  // [H Bᵀ; B 0] with H a 7-point Laplacian on primal unknowns and B mapping
  // each constraint to a handful of primal variables.
  const CsrMatrix h = gen_mesh3d(nx, ny, nz, 7);
  const index_t np = h.num_rows();
  const index_t nc = np / 3 + 1;
  const index_t n = np + nc;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> primal(0, np - 1);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < np; ++i) {
    const auto cols = h.row_cols(i);
    const auto vals = h.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(i, cols[k], vals[k]);
    }
  }
  for (index_t c = 0; c < nc; ++c) {
    coo.add(np + c, np + c, 1e-8);  // regularised (2,2) block
    for (int e = 0; e < 3; ++e) {
      const index_t j = primal(rng);
      coo.add(np + c, j, 1.0);
      coo.add(j, np + c, 1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_banded(index_t n, index_t half_bandwidth, double density,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(2.0 * half_bandwidth * density));
    for (index_t j = std::max<index_t>(0, i - half_bandwidth); j < i; ++j) {
      if (uniform(rng) < density) coo.add_symmetric(i, j, -0.5);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_block_diagonal(index_t num_blocks, index_t block_size,
                             double coupling, std::uint64_t seed) {
  const index_t n = num_blocks * block_size;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  CooMatrix coo(n, n);
  for (index_t b = 0; b < num_blocks; ++b) {
    const index_t base = b * block_size;
    for (index_t i = 0; i < block_size; ++i) {
      coo.add(base + i, base + i, diag_for_degree(block_size * 0.6));
      for (index_t j = i + 1; j < block_size; ++j) {
        if (uniform(rng) < 0.6) coo.add_symmetric(base + i, base + j, -0.4);
      }
    }
    if (b + 1 < num_blocks) {
      for (index_t i = 0; i < block_size; ++i) {
        if (uniform(rng) < coupling) {
          coo.add_symmetric(base + i, base + block_size + i, -0.2);
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_random_uniform(index_t n, double avg_degree,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> any(0, n - 1);
  std::poisson_distribution<int> degree(avg_degree);
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag_for_degree(avg_degree));
    const int k = degree(rng);
    for (int e = 0; e < k; ++e) {
      const index_t j = any(rng);
      if (j != i) coo.add(i, j, -0.5);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_mycielskian(int k) {
  require(k >= 2 && k <= 16, "gen_mycielskian: k out of range");
  // Edge list representation; M_2 = K_2.
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}};
  index_t n = 2;
  for (int step = 3; step <= k; ++step) {
    // Mycielski construction: vertices V ∪ U ∪ {w}; u_i adjacent to N(v_i)
    // and to w.
    std::vector<std::pair<index_t, index_t>> next = edges;
    for (const auto& [a, b] : edges) {
      next.emplace_back(n + a, b);   // u_a - v_b
      next.emplace_back(a, n + b);   // v_a - u_b
    }
    const index_t w = 2 * n;
    for (index_t i = 0; i < n; ++i) next.emplace_back(n + i, w);
    edges = std::move(next);
    n = 2 * n + 1;
  }
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
  for (const auto& [a, b] : edges) coo.add_symmetric(a, b, -1.0);
  return CsrMatrix::from_coo(coo);
}

CsrMatrix gen_dense_tall_skinny(index_t rows, index_t cols) {
  CsrArray<offset_t> row_ptr(static_cast<std::size_t>(rows) + 1);
  for (index_t i = 0; i <= rows; ++i) {
    row_ptr[static_cast<std::size_t>(i)] =
        static_cast<offset_t>(i) * cols;
  }
  CsrArray<index_t> col_idx(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols));
  CsrArray<value_t> values(col_idx.size(), 1.0);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      col_idx[static_cast<std::size_t>(i) * cols + j] = j;
    }
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace ordo
