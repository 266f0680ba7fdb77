// Tests for the sparse containers and structural operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "corpus/generators.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "pipeline/fork_join.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/permutation.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::random_square;

// The transpose-based definition of a symmetric pattern, which
// is_pattern_symmetric had before its cursor walk (DESIGN §18): square, and
// A's pattern equals Aᵀ's.
bool transpose_pattern_symmetric(const CsrMatrix& a) {
  if (!a.is_square()) return false;
  const CsrMatrix at = transpose(a);
  return std::ranges::equal(a.row_ptr(), at.row_ptr()) &&
         std::ranges::equal(a.col_idx(), at.col_idx());
}

// gen_mesh2d as it was assembled through COO before it emitted CSR rows.
CsrMatrix coo_mesh2d(index_t nx, index_t ny, int stencil) {
  const index_t n = nx * ny;
  CooMatrix coo(n, n);
  auto id = [nx](index_t x, index_t y) { return y * nx + x; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      coo.add(id(x, y), id(x, y), static_cast<value_t>(stencil - 1));
      if (x + 1 < nx) coo.add_symmetric(id(x, y), id(x + 1, y), -1.0);
      if (y + 1 < ny) coo.add_symmetric(id(x, y), id(x, y + 1), -1.0);
      if (stencil == 9) {
        if (x + 1 < nx && y + 1 < ny) {
          coo.add_symmetric(id(x, y), id(x + 1, y + 1), -0.5);
        }
        if (x > 0 && y + 1 < ny) {
          coo.add_symmetric(id(x, y), id(x - 1, y + 1), -0.5);
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

// B(i, j) = A(row_perm[i], col_perm[j]), assembled through COO.
CsrMatrix coo_permute(const CsrMatrix& a, const Permutation& row_perm,
                      const Permutation& col_perm) {
  const Permutation row_inv = invert_permutation(row_perm);
  const Permutation col_inv = invert_permutation(col_perm);
  CooMatrix coo(a.num_rows(), a.num_cols());
  for (index_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(row_inv[static_cast<std::size_t>(i)],
              col_inv[static_cast<std::size_t>(cols[k])], vals[k]);
    }
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Require, LiteralMessageThrowsLikeTheStringOverload) {
  EXPECT_NO_THROW(require(true, "never thrown"));
  const char* literal =
      "require: a message longer than the small-string buffer";
  std::string from_literal;
  std::string from_string;
  try {
    require(false, literal);
  } catch (const invalid_argument_error& e) {
    from_literal = e.what();
  }
  try {
    require(false, std::string(literal));
  } catch (const invalid_argument_error& e) {
    from_string = e.what();
  }
  EXPECT_EQ(from_literal, literal);
  EXPECT_EQ(from_string, from_literal);
}

TEST(Coo, RejectsOutOfRangeIndices) {
  CooMatrix coo(3, 3);
  EXPECT_THROW(coo.add(3, 0, 1.0), invalid_argument_error);
  EXPECT_THROW(coo.add(0, -1, 1.0), invalid_argument_error);
}

TEST(Csr, FromCooSortsAndSumsDuplicates) {
  CooMatrix coo(2, 4);
  coo.add(0, 3, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(0, 3, 0.5);  // duplicate of (0,3)
  coo.add(1, 0, -1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(a.num_nonzeros(), 3);
  ASSERT_EQ(a.row_cols(0).size(), 2u);
  EXPECT_EQ(a.row_cols(0)[0], 1);
  EXPECT_EQ(a.row_cols(0)[1], 3);
  EXPECT_DOUBLE_EQ(a.row_values(0)[1], 1.5);
}

TEST(Csr, ValidatesInvariants) {
  // Unsorted columns within a row must be rejected.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0, 1.0}),
               invalid_argument_error);
  // row_ptr must end at nnz.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 1}, {0, 1}, {1.0, 1.0}),
               invalid_argument_error);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0}), invalid_argument_error);
}

TEST(Csr, SymmetricExpandMirrorsOffDiagonals) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 0, -1.0);  // lower triangle only
  coo.add(2, 1, -1.0);
  const CsrMatrix a = CsrMatrix::from_coo_symmetric_expand(coo);
  EXPECT_EQ(a.num_nonzeros(), 5);
  EXPECT_TRUE(is_pattern_symmetric(a));
}

TEST(Csr, StorageBytesFormula) {
  const CsrMatrix a = random_square(10, 3.0, 1);
  const std::int64_t expected =
      static_cast<std::int64_t>(11 * sizeof(offset_t)) +
      a.num_nonzeros() *
          static_cast<std::int64_t>(sizeof(index_t) + sizeof(value_t));
  EXPECT_EQ(a.storage_bytes(), expected);
}

TEST(Csr, CopiesShareImmutableArrays) {
  // No mutable view exists, so a copy cannot write through to its original.
  CsrMatrix a = random_square(10, 3.0, 1);
  static_assert(
      std::is_same_v<decltype(a.values()), std::span<const value_t>>);
  // Copies are O(1): they point at the original's arrays.
  const CsrMatrix b = a;
  EXPECT_EQ(b.col_idx().data(), a.col_idx().data());
  EXPECT_EQ(b.values().data(), a.values().data());
  EXPECT_EQ(b, a);
}

TEST(Transpose, InvolutionAndKnownPattern) {
  const CsrMatrix a = random_square(50, 4.0, 3);
  const CsrMatrix att = transpose(transpose(a));
  EXPECT_EQ(a, att);
}

TEST(Transpose, RectangularShape) {
  CooMatrix coo(2, 5);
  coo.add(0, 4, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix t = transpose(CsrMatrix::from_coo(coo));
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.num_cols(), 2);
  EXPECT_EQ(t.row_cols(4)[0], 0);
}

TEST(IsPatternSymmetric, MatchesTransposeDefinition) {
  std::vector<std::pair<std::string, CsrMatrix>> cases;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_square(150, 3.0, seed);
    cases.emplace_back("random " + std::to_string(seed), a);
    cases.emplace_back("symmetrized " + std::to_string(seed), symmetrize(a));
  }
  cases.emplace_back("empty", CsrMatrix(0, 0, {0}, {}, {}));
  cases.emplace_back("rectangular", CsrMatrix(2, 3, {0, 1, 2}, {1, 0},
                                              {1.0, 1.0}));
  // Empty rows, with a symmetric pattern and without.
  cases.emplace_back("empty rows", CsrMatrix(4, 4, {0, 1, 1, 2, 2}, {2, 0},
                                             {1.0, 1.0}));
  cases.emplace_back("empty rows, one-sided",
                     CsrMatrix(4, 4, {0, 1, 1, 1, 1}, {2}, {1.0}));
  // Every row count matches the transpose's, but a cycle is one-sided.
  const CsrMatrix cycle(3, 3, {0, 1, 2, 3}, {1, 2, 0}, {1.0, 1.0, 1.0});
  cases.emplace_back("cycle", cycle);
  // A grid with one extra entry whose mirror is missing, placed first,
  // in the middle, and last in its row.
  const CsrMatrix grid = testing::grid_laplacian_2d(6, 6);
  for (const auto& [i, j] : {std::pair<index_t, index_t>{0, 35},
                             {14, 3},
                             {20, 34},
                             {35, 0}}) {
    CooMatrix coo(36, 36);
    for (index_t r = 0; r < 36; ++r) {
      for (index_t c : grid.row_cols(r)) coo.add(r, c, 1.0);
    }
    coo.add(i, j, 1.0);
    cases.emplace_back("grid plus (" + std::to_string(i) + ", " +
                           std::to_string(j) + ")",
                       CsrMatrix::from_coo(coo));
  }
  cases.emplace_back("grid", grid);
  cases.emplace_back("mesh", gen_mesh2d(9, 7, 9));
  // Over the parallel grain, so column ranges run on idle cores: a
  // one-sided corner entry lies in the first rows and the last columns, or
  // the last rows and the first columns.
  const CsrMatrix big = gen_mesh2d(300, 300, 9);
  const index_t n = big.num_rows();
  for (const auto& [i, j] :
       {std::pair<index_t, index_t>{0, n - 1}, {n - 1, 0}}) {
    CooMatrix coo(n, n);
    for (index_t r = 0; r < n; ++r) {
      for (index_t c : big.row_cols(r)) coo.add(r, c, 1.0);
    }
    coo.add(i, j, 1.0);
    cases.emplace_back("big mesh plus (" + std::to_string(i) + ", " +
                           std::to_string(j) + ")",
                       CsrMatrix::from_coo(coo));
  }
  cases.emplace_back("big mesh", big);
  // The last row empty, its column holding one entry: the last column
  // range must reach past the last nonzero's row.
  {
    CooMatrix coo(n + 1, n + 1);
    for (index_t r = 0; r < n; ++r) {
      for (index_t c : big.row_cols(r)) coo.add(r, c, 1.0);
    }
    coo.add(5, n, 1.0);
    cases.emplace_back("big mesh plus an empty last row",
                       CsrMatrix::from_coo(coo));
  }
  for (const auto& [name, a] : cases) {
    EXPECT_EQ(is_pattern_symmetric(a), transpose_pattern_symmetric(a))
        << name;
  }
  EXPECT_TRUE(is_pattern_symmetric(grid));
  EXPECT_FALSE(is_pattern_symmetric(cycle));
}

TEST(GenMesh2d, MatchesCooAssembly) {
  for (int stencil : {5, 9}) {
    for (const auto& [nx, ny] :
         {std::pair<index_t, index_t>{1, 1}, {1, 9}, {9, 1}, {2, 2}, {5, 3},
          {3, 5}, {41, 37}}) {
      EXPECT_EQ(gen_mesh2d(nx, ny, stencil), coo_mesh2d(nx, ny, stencil))
          << nx << "x" << ny << " " << stencil << "-point";
    }
  }
}

TEST(Permute, MatchesCooAssembly) {
  // Rows longer than the in-place insertion-sort cutoff go through a
  // separate sort: one dense row, one dense column, and a rectangular case.
  CooMatrix coo(300, 300);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<value_t> value(-1.0, 1.0);
  const CsrMatrix random = random_square(300, 4.0, 12);
  for (index_t i = 0; i < 300; ++i) {
    for (index_t j : random.row_cols(i)) coo.add(i, j, value(rng));
  }
  for (index_t j = 0; j < 300; j += 2) coo.add(17, j, value(rng));
  for (index_t i = 1; i < 300; i += 3) coo.add(i, 250, value(rng));
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  ASSERT_GT(a.row_nonzeros(17), 100);
  const Permutation rows = random_permutation(300, 1);
  const Permutation cols = random_permutation(300, 2);
  EXPECT_EQ(permute(a, rows, cols), coo_permute(a, rows, cols));
  EXPECT_EQ(permute_symmetric(a, rows), coo_permute(a, rows, rows));
  EXPECT_EQ(permute(a, identity_permutation(300), cols),
            coo_permute(a, identity_permutation(300), cols));

  CooMatrix wide(40, 90);
  for (index_t i = 0; i < 40; ++i) {
    for (index_t j = i % 3; j < 90; j += 1 + i % 4) wide.add(i, j, value(rng));
  }
  const CsrMatrix b = CsrMatrix::from_coo(wide);
  const Permutation wide_rows = random_permutation(40, 3);
  const Permutation wide_cols = random_permutation(90, 4);
  EXPECT_EQ(permute(b, wide_rows, wide_cols),
            coo_permute(b, wide_rows, wide_cols));
}

TEST(Permute, RejectsInvalidPermutations) {
  const CsrMatrix a = random_square(5, 2.0, 1);
  const Permutation good = {4, 2, 0, 1, 3};
  const Permutation duplicate = {4, 2, 0, 2, 3};
  const Permutation out_of_range = {4, 2, 0, 1, 5};
  const Permutation negative = {4, 2, 0, -1, 3};
  const Permutation short_perm = {1, 0, 2, 3};
  for (const Permutation& bad : {duplicate, out_of_range, negative}) {
    EXPECT_THROW(permute(a, bad, good), invalid_argument_error);
    EXPECT_THROW(permute(a, good, bad), invalid_argument_error);
    EXPECT_THROW(permute_symmetric(a, bad), invalid_argument_error);
    EXPECT_THROW(permute_rows(a, bad), invalid_argument_error);
    EXPECT_THROW(invert_permutation(bad), invalid_argument_error);
  }
  EXPECT_THROW(permute(a, short_perm, good), invalid_argument_error);
  EXPECT_THROW(permute(a, good, short_perm), invalid_argument_error);
  EXPECT_THROW(permute_symmetric(a, short_perm), invalid_argument_error);
}

TEST(Symmetrize, SumsMirroredValues) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 3.0);
  coo.add(1, 0, 4.0);
  const CsrMatrix s = symmetrize(CsrMatrix::from_coo(coo));
  EXPECT_DOUBLE_EQ(s.row_values(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(s.row_values(1)[0], 7.0);
}

TEST(Symmetrize, ProducesSymmetricPatternOnRandom) {
  const CsrMatrix a = random_square(120, 4.0, 5);
  EXPECT_TRUE(is_pattern_symmetric(symmetrize(a)));
}

TEST(Permutations, InvertAndCompose) {
  const Permutation p = random_permutation(40, 1);
  const Permutation inv = invert_permutation(p);
  EXPECT_EQ(compose_permutations(p, inv), identity_permutation(40));
  EXPECT_EQ(compose_permutations(inv, p), identity_permutation(40));
}

TEST(Permutations, IdentityTest) {
  EXPECT_TRUE(is_identity_permutation({}));
  EXPECT_TRUE(is_identity_permutation(identity_permutation(7)));
  EXPECT_FALSE(is_identity_permutation({0, 2, 1}));
  EXPECT_FALSE(is_identity_permutation({1, 0}));
}

TEST(Permutations, ValidationCatchesDefects) {
  EXPECT_TRUE(is_valid_permutation({2, 0, 1}));
  EXPECT_FALSE(is_valid_permutation({0, 0, 1}));   // duplicate
  EXPECT_FALSE(is_valid_permutation({0, 3, 1}));   // out of range
  EXPECT_FALSE(is_valid_permutation({0, -1, 1}));  // negative
}

TEST(PermuteSymmetric, RoundTripsThroughInverse) {
  const CsrMatrix a = symmetrize(random_square(64, 4.0, 9));
  const Permutation p = random_permutation(64, 2);
  const CsrMatrix b = permute_symmetric(a, p);
  const CsrMatrix back = permute_symmetric(b, invert_permutation(p));
  EXPECT_EQ(a, back);
}

TEST(PermuteSymmetric, MovesEntriesCorrectly) {
  // 2x2 with A(0,1) = 5; swapping rows/cols moves it to B(1,0).
  CooMatrix coo(2, 2);
  coo.add(0, 1, 5.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const CsrMatrix b = permute_symmetric(a, {1, 0});
  EXPECT_EQ(b.row_nonzeros(0), 0);
  EXPECT_EQ(b.row_cols(1)[0], 0);
  EXPECT_DOUBLE_EQ(b.row_values(1)[0], 5.0);
}

TEST(PermuteRows, LeavesColumnsInPlace) {
  CooMatrix coo(3, 3);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(2, 1, 3.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const CsrMatrix b = permute_rows(a, {2, 0, 1});
  EXPECT_EQ(b.row_cols(0)[0], 1);  // old row 2
  EXPECT_EQ(b.row_cols(1)[0], 2);  // old row 0
  EXPECT_EQ(b.row_cols(2)[0], 0);  // old row 1
}

TEST(Diagonal, CountAndFill) {
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 2, 1.0);
  coo.add(3, 3, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(diagonal_nonzeros(a), 2);
  const CsrMatrix full = with_full_diagonal(a, 9.0);
  EXPECT_EQ(diagonal_nonzeros(full), 4);
  EXPECT_EQ(full.num_nonzeros(), 5);
  EXPECT_DOUBLE_EQ(full.row_values(2)[0], 9.0);
  // Existing diagonal entries keep their value.
  EXPECT_DOUBLE_EQ(full.row_values(0)[0], 1.0);
}

TEST(LowerTriangle, KeepsDiagonalAndBelow) {
  const CsrMatrix a = testing::grid_laplacian_2d(5, 5);
  const CsrMatrix l = lower_triangle(a);
  for (index_t i = 0; i < l.num_rows(); ++i) {
    for (index_t j : l.row_cols(i)) EXPECT_LE(j, i);
  }
  // Symmetric matrix with full diagonal: lower triangle has (nnz + n) / 2.
  EXPECT_EQ(l.num_nonzeros(), (a.num_nonzeros() + a.num_rows()) / 2);
}

// CSR arrays built the way the builders built them before their outputs
// stopped being zeroed (DESIGN §23): value-initialized std::vectors.
struct ZeroedCsr {
  std::vector<offset_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
};

// gen_mesh2d's row-by-row emission as it was before its rows were filled on
// idle cores.
ZeroedCsr zeroed_mesh2d(index_t nx, index_t ny, int stencil) {
  ZeroedCsr out;
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      for (index_t dy = -1; dy <= 1; ++dy) {
        if (y + dy < 0 || y + dy >= ny) continue;
        for (index_t dx = -1; dx <= 1; ++dx) {
          if (x + dx < 0 || x + dx >= nx) continue;
          const bool corner = dx != 0 && dy != 0;
          if (corner && stencil == 5) continue;
          out.col_idx.push_back((y + dy) * nx + x + dx);
          out.values.push_back(dx == 0 && dy == 0
                                   ? static_cast<value_t>(stencil - 1)
                                   : (corner ? -0.5 : -1.0));
        }
      }
      out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
    }
  }
  return out;
}

// B(i, j) = A(perm[i], perm[j]), one sorted row at a time.
ZeroedCsr zeroed_permute_symmetric(const CsrMatrix& a, const Permutation& perm) {
  const Permutation inv = invert_permutation(perm);
  ZeroedCsr out;
  std::vector<std::pair<index_t, value_t>> row;
  for (index_t i = 0; i < a.num_rows(); ++i) {
    const index_t src = perm[static_cast<std::size_t>(i)];
    row.clear();
    for (std::size_t k = 0; k < a.row_cols(src).size(); ++k) {
      row.emplace_back(inv[static_cast<std::size_t>(a.row_cols(src)[k])],
                       a.row_values(src)[k]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [col, value] : row) {
      out.col_idx.push_back(col);
      out.values.push_back(value);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  }
  return out;
}

// Aᵀ through one bucket per column, filled in row order.
ZeroedCsr zeroed_transpose(const CsrMatrix& a) {
  std::vector<std::vector<std::pair<index_t, value_t>>> columns(
      static_cast<std::size_t>(a.num_cols()));
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (std::size_t k = 0; k < a.row_cols(i).size(); ++k) {
      columns[static_cast<std::size_t>(a.row_cols(i)[k])].emplace_back(
          i, a.row_values(i)[k]);
    }
  }
  ZeroedCsr out;
  for (const auto& column : columns) {
    for (const auto& [row, value] : column) {
      out.col_idx.push_back(row);
      out.values.push_back(value);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  }
  return out;
}

// The adjacency of a symmetric matrix: each row without its diagonal.
ZeroedCsr zeroed_adjacency(const CsrMatrix& a) {
  ZeroedCsr out;
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      if (j != i) out.col_idx.push_back(j);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  }
  return out;
}

void expect_same_arrays(const CsrMatrix& a, const ZeroedCsr& expected) {
  EXPECT_TRUE(std::ranges::equal(a.row_ptr(), expected.row_ptr));
  EXPECT_TRUE(std::ranges::equal(a.col_idx(), expected.col_idx));
  EXPECT_TRUE(std::ranges::equal(a.values(), expected.values));
}

// Leaves 0xFF bytes in blocks of the given sizes and frees them, where the
// allocator is likely to place a builder's next blocks of those sizes: a
// builder that skipped a slot would hand those bytes back. The sizes stay
// under glibc's default mmap threshold (128 KiB), below which freed memory
// is reused as it is instead of coming back zeroed from the kernel.
void poison_heap(std::initializer_list<std::size_t> sizes) {
  std::vector<void*> blocks;
  for (std::size_t bytes : sizes) {
    void* block = ::operator new(bytes);
    std::memset(block, 0xFF, bytes);
    // Publishes the block, so the writes cannot be elided with it.
    asm volatile("" : : "r"(block) : "memory");
    blocks.push_back(block);
  }
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    ::operator delete(*it);
  }
}

void poison_for(std::size_t rows, std::size_t nonzeros) {
  poison_heap({(rows + 1) * sizeof(offset_t), nonzeros * sizeof(index_t),
               nonzeros * sizeof(value_t)});
}

// The builders that leave their outputs unzeroed (CsrArray) must write
// every slot: built over freshly poisoned memory, they must still equal the
// zero-initialized builds.
TEST(UnzeroedBuilders, WriteEverySlot) {
  for (int stencil : {5, 9}) {
    const ZeroedCsr expected = zeroed_mesh2d(40, 37, stencil);
    poison_for(expected.row_ptr.size(), expected.col_idx.size());
    expect_same_arrays(gen_mesh2d(40, 37, stencil), expected);
  }
  const CsrMatrix mesh = gen_mesh2d(40, 40, 9);
  const Permutation perm = random_permutation(mesh.num_rows(), 3);
  const auto rows = static_cast<std::size_t>(mesh.num_rows());
  const auto nnz = static_cast<std::size_t>(mesh.num_nonzeros());
  {
    const ZeroedCsr expected = zeroed_permute_symmetric(mesh, perm);
    poison_for(rows, nnz);
    expect_same_arrays(permute_symmetric(mesh, perm), expected);
  }
  {
    // Rows only: the gather copies each source row whole.
    ZeroedCsr expected;
    for (index_t i = 0; i < mesh.num_rows(); ++i) {
      const index_t src = perm[static_cast<std::size_t>(i)];
      const auto cols = mesh.row_cols(src);
      const auto vals = mesh.row_values(src);
      expected.col_idx.insert(expected.col_idx.end(), cols.begin(), cols.end());
      expected.values.insert(expected.values.end(), vals.begin(), vals.end());
      expected.row_ptr.push_back(static_cast<offset_t>(expected.col_idx.size()));
    }
    poison_for(rows, nnz);
    expect_same_arrays(permute_rows(mesh, perm), expected);
  }
  {
    // Rows past the in-place insertion-sort cutoff take the pair sort.
    CooMatrix coo(300, 300);
    for (index_t j = 0; j < 300; j += 2) coo.add(17, j, 1.0 + j);
    for (index_t i = 0; i < 300; ++i) coo.add(i, (7 * i) % 300, -1.0 - i);
    const CsrMatrix dense_row = CsrMatrix::from_coo(coo);
    const Permutation p = random_permutation(300, 4);
    const ZeroedCsr expected = zeroed_permute_symmetric(dense_row, p);
    poison_for(300, static_cast<std::size_t>(dense_row.num_nonzeros()));
    expect_same_arrays(permute_symmetric(dense_row, p), expected);
  }
  {
    const CsrMatrix a = random_square(2000, 4.0, 5);
    const ZeroedCsr expected = zeroed_transpose(a);
    poison_for(2000, static_cast<std::size_t>(a.num_nonzeros()));
    expect_same_arrays(transpose(a), expected);
  }
  {
    const ZeroedCsr expected = zeroed_adjacency(mesh);
    poison_for(rows, expected.col_idx.size());
    const Graph g = Graph::from_matrix(mesh);
    EXPECT_TRUE(std::ranges::equal(g.adj_ptr(), expected.row_ptr));
    EXPECT_TRUE(std::ranges::equal(g.adj(), expected.col_idx));
  }
}

// gen_mesh2d fills its rows on idle cores once the mesh is over the
// parallel grains; the bytes must not depend on how many cores ran.
TEST(GenMesh2d, SameWithAndWithoutIdleCores) {
  const int held = pipeline::acquire_idle_cores(obs::affinity_cpu_count());
  const std::int64_t helpers_before = obs::counter("parallel.helpers").value();
  const CsrMatrix serial = gen_mesh2d(700, 650, 9);
  EXPECT_EQ(obs::counter("parallel.helpers").value(), helpers_before);
  pipeline::release_cores(held);

  const CsrMatrix parallel = gen_mesh2d(700, 650, 9);
  EXPECT_EQ(parallel, serial);
  expect_same_arrays(parallel, zeroed_mesh2d(700, 650, 9));
#if defined(ORDO_OBS_ENABLED)
  if (held > 0) {
    EXPECT_GT(obs::counter("parallel.helpers").value(), helpers_before);
  }
#endif
}

}  // namespace
}  // namespace ordo
