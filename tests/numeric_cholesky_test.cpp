// Tests for the numeric sparse Cholesky: reconstruction of A from L·Lᵀ,
// agreement of the numeric factor's structure with the symbolic counts,
// triangular solves, and non-SPD rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cholesky/cholesky.hpp"
#include "cholesky/numeric.hpp"
#include "reorder/reordering.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;

// Grid Laplacian with the diagonal bumped to make it strictly SPD.
CsrMatrix spd_grid(index_t nx, index_t ny) {
  const CsrMatrix grid = grid_laplacian_2d(nx, ny);
  CsrArray<value_t> values(grid.values().begin(), grid.values().end());
  for (index_t i = 0; i < grid.num_rows(); ++i) {
    // Diagonal is the entry whose column equals the row.
    const auto cols = grid.row_cols(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        values[static_cast<std::size_t>(grid.row_ptr()[i]) + k] += 1.0;
      }
    }
  }
  return CsrMatrix(grid.num_rows(), grid.num_cols(),
                   {grid.row_ptr().begin(), grid.row_ptr().end()},
                   {grid.col_idx().begin(), grid.col_idx().end()},
                   std::move(values));
}

std::vector<value_t> dense_of(const CsrMatrix& a) {
  const std::size_t n = static_cast<std::size_t>(a.num_rows());
  std::vector<value_t> dense(n * n, 0.0);
  for (index_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      dense[static_cast<std::size_t>(i) * n +
            static_cast<std::size_t>(cols[k])] = vals[k];
    }
  }
  return dense;
}

TEST(NumericCholesky, Known2x2) {
  // A = [4 2; 2 3] => L = [2 0; 1 sqrt(2)].
  CooMatrix coo(2, 2);
  coo.add(0, 0, 4.0);
  coo.add_symmetric(0, 1, 2.0);
  coo.add(1, 1, 3.0);
  const auto factor = cholesky_factorize(CsrMatrix::from_coo(coo));
  ASSERT_TRUE(factor.has_value());
  EXPECT_NEAR(factor->values[0], 2.0, 1e-12);            // L(0,0)
  EXPECT_NEAR(factor->values[1], 1.0, 1e-12);            // L(1,0)
  EXPECT_NEAR(factor->values[2], std::sqrt(2.0), 1e-12); // L(1,1)
}

TEST(NumericCholesky, ReconstructsGrid) {
  const CsrMatrix a = spd_grid(7, 6);
  const auto factor = cholesky_factorize(a);
  ASSERT_TRUE(factor.has_value());
  const auto rebuilt = reconstruct_dense(*factor);
  const auto reference = dense_of(a);
  ASSERT_EQ(rebuilt.size(), reference.size());
  for (std::size_t k = 0; k < rebuilt.size(); ++k) {
    EXPECT_NEAR(rebuilt[k], reference[k], 1e-9) << "entry " << k;
  }
}

TEST(NumericCholesky, StructureMatchesSymbolicCounts) {
  const CsrMatrix a = spd_grid(9, 9);
  const auto factor = cholesky_factorize(a);
  ASSERT_TRUE(factor.has_value());
  const auto counts = cholesky_column_counts(a);
  for (index_t j = 0; j < a.num_rows(); ++j) {
    EXPECT_EQ(factor->col_ptr[static_cast<std::size_t>(j) + 1] -
                  factor->col_ptr[static_cast<std::size_t>(j)],
              counts[static_cast<std::size_t>(j)])
        << "column " << j;
  }
  EXPECT_EQ(factor->num_nonzeros(), cholesky_factor_nonzeros(a));
}

class CholeskySolveTest : public ::testing::TestWithParam<OrderingKind> {};

TEST_P(CholeskySolveTest, SolvesUnderEveryOrdering) {
  const CsrMatrix base = spd_grid(8, 8);
  const CsrMatrix a =
      apply_ordering(base, compute_ordering(base, GetParam()));
  const auto factor = cholesky_factorize(a);
  ASSERT_TRUE(factor.has_value());

  // Manufactured solution: x* = (1, 2, 3, ...), b = A x*.
  const index_t n = a.num_rows();
  std::vector<value_t> x_star(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x_star[static_cast<std::size_t>(i)] = 1.0 + 0.5 * (i % 7);
  }
  std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      b[static_cast<std::size_t>(i)] +=
          vals[k] * x_star[static_cast<std::size_t>(cols[k])];
    }
  }
  const auto x = cholesky_solve(*factor, b);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_star[static_cast<std::size_t>(i)], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, CholeskySolveTest,
    ::testing::Values(OrderingKind::kOriginal, OrderingKind::kRcm,
                      OrderingKind::kAmd, OrderingKind::kNd,
                      OrderingKind::kGp),
    [](const ::testing::TestParamInfo<OrderingKind>& info) {
      return ordering_name(info.param);
    });

TEST(NumericCholesky, RejectsIndefiniteMatrix) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add_symmetric(0, 1, 5.0);  // off-diagonal dominates => indefinite
  coo.add(1, 1, 1.0);
  EXPECT_FALSE(cholesky_factorize(CsrMatrix::from_coo(coo)).has_value());
}

TEST(NumericCholesky, RejectsZeroDiagonal) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 0.0);
  EXPECT_FALSE(cholesky_factorize(CsrMatrix::from_coo(coo)).has_value());
}

TEST(NumericCholesky, DiagonalMatrixFactorsToSquareRoots) {
  CooMatrix coo(5, 5);
  for (index_t i = 0; i < 5; ++i) coo.add(i, i, static_cast<value_t>(i + 1));
  const auto factor = cholesky_factorize(CsrMatrix::from_coo(coo));
  ASSERT_TRUE(factor.has_value());
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(factor->values[static_cast<std::size_t>(i)],
                std::sqrt(static_cast<double>(i + 1)), 1e-12);
  }
}

TEST(ForwardBackwardSolve, InverseOfEachOther) {
  const CsrMatrix a = spd_grid(5, 5);
  const auto factor = cholesky_factorize(a);
  ASSERT_TRUE(factor.has_value());
  std::vector<value_t> b(static_cast<std::size_t>(a.num_rows()));
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  for (auto& v : b) v = dist(rng);
  // L (L^-1 b) == b.
  const auto y = forward_solve(*factor, b);
  std::vector<value_t> lb(b.size(), 0.0);
  for (index_t j = 0; j < factor->n; ++j) {
    for (offset_t p = factor->col_ptr[static_cast<std::size_t>(j)];
         p < factor->col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      lb[static_cast<std::size_t>(
          factor->row_idx[static_cast<std::size_t>(p)])] +=
          factor->values[static_cast<std::size_t>(p)] *
          y[static_cast<std::size_t>(j)];
    }
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(lb[i], b[i], 1e-10);
  }
}

}  // namespace
}  // namespace ordo
