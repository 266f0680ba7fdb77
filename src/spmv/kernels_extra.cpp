#include "spmv/kernels_extra.hpp"

#include <algorithm>
#include <atomic>

#include "pipeline/fork_join.hpp"
#include "spmv/spmv.hpp"

namespace ordo {

MergePathPartition partition_merge_path(const CsrMatrix& a, int num_threads) {
  require(num_threads >= 1, "partition_merge_path: need at least one thread");
  const index_t m = a.num_rows();
  const offset_t nnz = a.num_nonzeros();
  const auto row_ptr = a.row_ptr();
  const std::int64_t total_work = static_cast<std::int64_t>(m) + nnz;

  MergePathPartition partition;
  partition.row_begin.resize(static_cast<std::size_t>(num_threads) + 1);
  partition.nnz_begin.resize(static_cast<std::size_t>(num_threads) + 1);
  for (int t = 0; t <= num_threads; ++t) {
    const std::int64_t diagonal = total_work * t / num_threads;
    // Binary search along the merge of the row-end list (row_ptr[i+1]) and
    // the nonzero indices: find the first row i on diagonal `diagonal` whose
    // end has NOT been consumed yet.
    std::int64_t lo = std::max<std::int64_t>(0, diagonal - nnz);
    std::int64_t hi = std::min<std::int64_t>(diagonal, m);
    while (lo < hi) {
      const std::int64_t mid = (lo + hi) / 2;
      // Row mid's end is consumed before the diagonal iff
      // row_ptr[mid+1] <= diagonal - mid - 1.
      if (row_ptr[static_cast<std::size_t>(mid) + 1] <= diagonal - mid - 1) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    partition.row_begin[static_cast<std::size_t>(t)] =
        static_cast<index_t>(lo);
    partition.nnz_begin[static_cast<std::size_t>(t)] =
        static_cast<offset_t>(diagonal - lo);
  }
  return partition;
}

void spmv_merge(const CsrMatrix& a, std::span<const value_t> x,
                std::span<value_t> y, const MergePathPartition& partition) {
  // The merge boundaries satisfy the same invariant the 2D kernel needs
  // (row_begin[t] is the row containing nonzero nnz_begin[t], up to the
  // row-end edge cases the kernel's carry logic already covers), so the
  // nonzero-split kernel executes the merge-path assignment directly.
  NnzPartition as_nnz;
  as_nnz.nnz_begin = partition.nnz_begin;
  as_nnz.row_of = partition.row_begin;
  spmv_2d(a, x, y, as_nnz);
}

void spmv_symmetric_lower_serial(const CsrMatrix& lower,
                                 std::span<const value_t> x,
                                 std::span<value_t> y) {
  require(lower.is_square(), "spmv_symmetric_lower: matrix must be square");
  require(x.size() == static_cast<std::size_t>(lower.num_cols()) &&
              y.size() == static_cast<std::size_t>(lower.num_rows()),
          "spmv_symmetric_lower: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t i = 0; i < lower.num_rows(); ++i) {
    const auto cols = lower.row_cols(i);
    const auto vals = lower.row_values(i);
    value_t sum = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      require(j <= i, "spmv_symmetric_lower: entry above the diagonal");
      sum += vals[k] * x[static_cast<std::size_t>(j)];
      if (j != i) {
        // Mirrored upper-triangle contribution.
        y[static_cast<std::size_t>(j)] +=
            vals[k] * x[static_cast<std::size_t>(i)];
      }
    }
    y[static_cast<std::size_t>(i)] += sum;
  }
}

void spmv_transpose_serial(const CsrMatrix& a, std::span<const value_t> x,
                           std::span<value_t> y) {
  require(x.size() == static_cast<std::size_t>(a.num_rows()) &&
              y.size() == static_cast<std::size_t>(a.num_cols()),
          "spmv_transpose: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    const value_t xi = x[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      y[static_cast<std::size_t>(cols[k])] += vals[k] * xi;
    }
  }
}

void spmv_transpose_parallel(const CsrMatrix& a, std::span<const value_t> x,
                             std::span<value_t> y, int num_threads) {
  require(x.size() == static_cast<std::size_t>(a.num_rows()) &&
              y.size() == static_cast<std::size_t>(a.num_cols()),
          "spmv_transpose: size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const std::vector<index_t> blocks =
      partition_rows_even(a.num_rows(), num_threads);
  std::fill(y.begin(), y.end(), 0.0);
  pipeline::run_tasks(
      static_cast<std::size_t>(num_threads), num_threads, [&](std::size_t t) {
        for (index_t i = blocks[t]; i < blocks[t + 1]; ++i) {
          const value_t xi = x[static_cast<std::size_t>(i)];
          for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
               k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            const std::size_t j =
                static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]);
            // Relaxed: each add is whole on its own; the pool's join
            // publishes y to the caller.
            std::atomic_ref<value_t>(y[j]).fetch_add(
                values[static_cast<std::size_t>(k)] * xi,
                std::memory_order_relaxed);
          }
        }
      });
}

}  // namespace ordo
