// Shared-memory parallel SpMV kernels on the CSR format (Section 3.1).
//
// Two kernels are studied:
//  * the **1D algorithm**: rows are split into equal-sized contiguous blocks,
//    one per thread (partition_rows_even) — it is simple but
//    load-imbalanced when nonzeros are unevenly distributed;
//  * the **2D algorithm**: the *nonzeros* are split evenly; each thread
//    processes a contiguous nonzero range, handling its first and last
//    (possibly shared) rows with a separate fix-up pass so no two threads
//    race on an output element. This is a simplified merge-based kernel
//    (Merrill & Garland 2016).
//
// Both kernels compute y = A·x. A launch on T threads runs chunk t of its
// split as task t of pipeline::run_tasks(T, T, ...), on the caller and
// T - 1 pool workers.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace ordo {

/// Sequential reference kernel.
void spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                 std::span<value_t> y);

/// Even row split: returns num_threads+1 row boundaries; thread t owns rows
/// [boundaries[t], boundaries[t+1]).
std::vector<index_t> partition_rows_even(index_t num_rows, int num_threads);

/// Nonzero counts per thread under the even row split — the quantity the
/// 1D load-imbalance factor is computed from.
std::vector<offset_t> nnz_per_thread_1d(const CsrMatrix& a, int num_threads);

/// Nonzero-balanced partition for the 2D kernel.
struct NnzPartition {
  /// num_threads+1 nonzero boundaries; thread t owns [nnz_begin[t],
  /// nnz_begin[t+1]).
  std::vector<offset_t> nnz_begin;
  /// num_threads+1 entries: row containing each boundary nonzero (row index
  /// r such that row_ptr[r] <= nnz_begin[t] < row_ptr[r+1]).
  std::vector<index_t> row_of;
};

/// Splits the nonzeros of `a` as evenly as possible across threads.
NnzPartition partition_nonzeros_even(const CsrMatrix& a, int num_threads);

/// Nonzero counts per thread under the even nonzero split (differ by at most
/// one; the 2D imbalance factor is 1 by construction).
std::vector<offset_t> nnz_per_thread_2d(const CsrMatrix& a, int num_threads);

/// 1D kernel: one pool thread per row block of partition_rows_even.
void spmv_1d(const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y, int num_threads);

/// 2D kernel: one pool thread per range of the given nonzero partition. The
/// partition is a reusable preprocessing product, amortised over iterations
/// exactly as in the paper.
void spmv_2d(const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y, const NnzPartition& partition);

}  // namespace ordo
