// Tests for the 1D and 2D SpMV kernels: correctness against the serial
// reference, partition invariants, and boundary cases (empty rows, rows
// spanning several threads).
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "spmv/spmv.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_square;

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::vector<value_t> x(static_cast<std::size_t>(n));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);
  return x;
}

void expect_vectors_near(const std::vector<value_t>& a,
                         const std::vector<value_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12) << "at index " << i;
  }
}

TEST(SpmvSerial, IdentityMatrix) {
  CooMatrix coo(4, 4);
  for (index_t i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const std::vector<value_t> x{1.0, 2.0, 3.0, 4.0};
  std::vector<value_t> y(4);
  spmv_serial(a, x, y);
  expect_vectors_near(y, x);
}

TEST(SpmvSerial, KnownSmallMatrix) {
  // [1 2; 0 3] * [1; 2] = [5; 6]
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 1, 3.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  std::vector<value_t> y(2);
  spmv_serial(a, std::vector<value_t>{1.0, 2.0}, y);
  expect_vectors_near(y, {5.0, 6.0});
}

TEST(PartitionRows, EvenSplitCoversAllRows) {
  for (int threads : {1, 2, 3, 7, 16}) {
    const auto boundaries = partition_rows_even(100, threads);
    ASSERT_EQ(boundaries.size(), static_cast<std::size_t>(threads) + 1);
    EXPECT_EQ(boundaries.front(), 0);
    EXPECT_EQ(boundaries.back(), 100);
    for (std::size_t t = 1; t < boundaries.size(); ++t) {
      EXPECT_GE(boundaries[t], boundaries[t - 1]);
    }
  }
}

TEST(PartitionNonzeros, BalancedWithinOne) {
  const CsrMatrix a = random_square(500, 6.0, 42);
  for (int threads : {2, 5, 16, 64}) {
    const auto counts = nnz_per_thread_2d(a, threads);
    const auto [min_it, max_it] =
        std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*max_it - *min_it, 1) << "threads=" << threads;
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), offset_t{0}),
              a.num_nonzeros());
  }
}

TEST(PartitionNonzeros, MoreThreadsThanNonzeros) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(2, 2, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto counts = nnz_per_thread_2d(a, 8);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), offset_t{0}), 2);
}

class SpmvKernelsTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmvKernelsTest, MatchSerialOnRandomMatrices) {
  const int threads = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_square(257, 5.0, seed);
    const auto x = random_vector(a.num_cols(), seed + 100);
    std::vector<value_t> y_ref(static_cast<std::size_t>(a.num_rows()));
    std::vector<value_t> y_1d(y_ref.size()), y_2d(y_ref.size());
    spmv_serial(a, x, y_ref);
    spmv_1d(a, x, y_1d, threads);
    spmv_2d(a, x, y_2d, partition_nonzeros_even(a, threads));
    expect_vectors_near(y_1d, y_ref);
    expect_vectors_near(y_2d, y_ref);
  }
}

TEST_P(SpmvKernelsTest, MatchSerialOnGrid) {
  const int threads = GetParam();
  const CsrMatrix a = grid_laplacian_2d(23, 17);
  const auto x = random_vector(a.num_cols(), 9);
  std::vector<value_t> y_ref(static_cast<std::size_t>(a.num_rows()));
  std::vector<value_t> y_1d(y_ref.size()), y_2d(y_ref.size());
  spmv_serial(a, x, y_ref);
  spmv_1d(a, x, y_1d, threads);
  spmv_2d(a, x, y_2d, partition_nonzeros_even(a, threads));
  expect_vectors_near(y_1d, y_ref);
  expect_vectors_near(y_2d, y_ref);
}

TEST_P(SpmvKernelsTest, HandlesEmptyRowsAtBoundaries) {
  // Matrix with many empty rows scattered around so nonzero-partition
  // boundaries frequently land next to empty rows.
  const index_t n = 101;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; i += 3) {
    coo.add(i, (i * 7) % n, 1.5);
    coo.add(i, i, 2.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto x = random_vector(n, 5);
  std::vector<value_t> y_ref(static_cast<std::size_t>(n)), y_2d(y_ref.size());
  spmv_serial(a, x, y_ref);
  spmv_2d(a, x, y_2d, partition_nonzeros_even(a, GetParam()));
  expect_vectors_near(y_2d, y_ref);
}

TEST_P(SpmvKernelsTest, HandlesSingleDenseRowSpanningManyThreads) {
  // One row holds nearly all nonzeros, so with many threads the row spans
  // several nonzero ranges and the carry fix-up path is exercised.
  const index_t n = 64;
  CooMatrix coo(n, n);
  for (index_t j = 0; j < n; ++j) coo.add(10, j, 1.0 + j);
  coo.add(0, 0, 5.0);
  coo.add(63, 63, 7.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto x = random_vector(n, 77);
  std::vector<value_t> y_ref(static_cast<std::size_t>(n)), y_2d(y_ref.size());
  spmv_serial(a, x, y_ref);
  spmv_2d(a, x, y_2d, partition_nonzeros_even(a, GetParam()));
  expect_vectors_near(y_2d, y_ref);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SpmvKernelsTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 32, 128));

TEST(Spmv2d, EmptyMatrix) {
  const CsrMatrix a(0, 0, {0}, {}, {});
  std::vector<value_t> y;
  spmv_2d(a, std::vector<value_t>{}, y, partition_nonzeros_even(a, 4));
  SUCCEED();
}

TEST(Spmv2d, AllRowsEmptyExceptLast) {
  const index_t n = 10;
  CooMatrix coo(n, n);
  coo.add(n - 1, 0, 3.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  std::vector<value_t> x(static_cast<std::size_t>(n), 2.0);
  std::vector<value_t> y(static_cast<std::size_t>(n), -1.0);
  spmv_2d(a, x, y, partition_nonzeros_even(a, 4));
  for (index_t i = 0; i < n - 1; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0) << i;
  }
  EXPECT_NEAR(y.back(), 6.0, 1e-15);
}

}  // namespace
}  // namespace ordo
