#include "spmv/spmv.hpp"

#include <algorithm>

#include <omp.h>

#include "obs/obs.hpp"

namespace ordo {
namespace {

// Observed per-thread profile of one kernel launch, recorded only when
// obs::profiling_enabled() (ORDO_PROFILE=1). The gate is one branch per
// *launch*; the kernels' inner loops carry no instrumentation either way.
void record_thread_profile(const char* kernel,
                           const std::vector<double>& thread_seconds,
                           const std::vector<offset_t>& thread_nnz) {
#if defined(ORDO_OBS_ENABLED)
  const std::string prefix = std::string("spmv.") + kernel;
  obs::counter(prefix + ".profiled_launches").increment();
  obs::Histogram& seconds = obs::histogram(prefix + ".thread_seconds");
  obs::Histogram& nnz = obs::histogram(prefix + ".thread_nnz");
  double max_seconds = 0.0;
  double sum_seconds = 0.0;
  for (std::size_t t = 0; t < thread_seconds.size(); ++t) {
    seconds.record(thread_seconds[t]);
    nnz.record(static_cast<double>(thread_nnz[t]));
    max_seconds = std::max(max_seconds, thread_seconds[t]);
    sum_seconds += thread_seconds[t];
  }
  const double mean_seconds =
      sum_seconds / static_cast<double>(thread_seconds.size());
  // Time-based imbalance as observed on this host, the quantity the paper's
  // Section 3.1 nnz-based factor approximates.
  obs::gauge(prefix + ".observed_imbalance")
      .set(mean_seconds > 0.0 ? max_seconds / mean_seconds : 1.0);
#else
  (void)kernel;
  (void)thread_seconds;
  (void)thread_nnz;
#endif
}

}  // namespace

void spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                 std::span<value_t> y) {
  require(x.size() == static_cast<std::size_t>(a.num_cols()),
          "spmv_serial: x size mismatch");
  require(y.size() == static_cast<std::size_t>(a.num_rows()),
          "spmv_serial: y size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (index_t i = 0; i < a.num_rows(); ++i) {
    value_t sum = 0.0;
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

std::vector<index_t> partition_rows_even(index_t num_rows, int num_threads) {
  require(num_threads >= 1, "partition_rows_even: need at least one thread");
  std::vector<index_t> boundaries(static_cast<std::size_t>(num_threads) + 1);
  for (int t = 0; t <= num_threads; ++t) {
    boundaries[static_cast<std::size_t>(t)] = static_cast<index_t>(
        (static_cast<std::int64_t>(num_rows) * t) / num_threads);
  }
  return boundaries;
}

std::vector<offset_t> nnz_per_thread_1d(const CsrMatrix& a, int num_threads) {
  const std::vector<index_t> boundaries =
      partition_rows_even(a.num_rows(), num_threads);
  std::vector<offset_t> counts(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    counts[static_cast<std::size_t>(t)] =
        a.row_ptr()[static_cast<std::size_t>(
            boundaries[static_cast<std::size_t>(t) + 1])] -
        a.row_ptr()[static_cast<std::size_t>(
            boundaries[static_cast<std::size_t>(t)])];
  }
  return counts;
}

NnzPartition partition_nonzeros_even(const CsrMatrix& a, int num_threads) {
  require(num_threads >= 1,
          "partition_nonzeros_even: need at least one thread");
  const offset_t nnz = a.num_nonzeros();
  const auto row_ptr = a.row_ptr();
  NnzPartition partition;
  partition.nnz_begin.resize(static_cast<std::size_t>(num_threads) + 1);
  partition.row_of.resize(static_cast<std::size_t>(num_threads) + 1);
  for (int t = 0; t <= num_threads; ++t) {
    const offset_t boundary = (nnz * t) / num_threads;
    partition.nnz_begin[static_cast<std::size_t>(t)] = boundary;
    // Row containing the boundary: last r with row_ptr[r] <= boundary.
    const auto it =
        std::upper_bound(row_ptr.begin(), row_ptr.end(), boundary);
    partition.row_of[static_cast<std::size_t>(t)] = static_cast<index_t>(
        std::min<std::ptrdiff_t>(std::distance(row_ptr.begin(), it) - 1,
                                 std::max<index_t>(a.num_rows() - 1, 0)));
  }
  return partition;
}

std::vector<offset_t> nnz_per_thread_2d(const CsrMatrix& a, int num_threads) {
  const NnzPartition partition = partition_nonzeros_even(a, num_threads);
  std::vector<offset_t> counts(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    counts[static_cast<std::size_t>(t)] =
        partition.nnz_begin[static_cast<std::size_t>(t) + 1] -
        partition.nnz_begin[static_cast<std::size_t>(t)];
  }
  return counts;
}

void spmv_1d(const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y, int num_threads) {
  require(x.size() == static_cast<std::size_t>(a.num_cols()),
          "spmv_1d: x size mismatch");
  require(y.size() == static_cast<std::size_t>(a.num_rows()),
          "spmv_1d: y size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const index_t m = a.num_rows();

  if (obs::profiling_enabled()) {
    // Profiled launch: same even contiguous row split, but with explicit
    // boundaries so each thread can time its own block. This path is taken
    // only under ORDO_PROFILE=1; the default path below is untouched.
    const std::vector<index_t> bounds = partition_rows_even(m, num_threads);
    std::vector<double> thread_seconds(
        static_cast<std::size_t>(num_threads), 0.0);
#pragma omp parallel num_threads(num_threads)
    {
      const int t = omp_get_thread_num();
      if (t < num_threads) {
        const double start = omp_get_wtime();
        for (index_t i = bounds[static_cast<std::size_t>(t)];
             i < bounds[static_cast<std::size_t>(t) + 1]; ++i) {
          value_t sum = 0.0;
          for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
               k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            sum += values[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(
                       col_idx[static_cast<std::size_t>(k)])];
          }
          y[static_cast<std::size_t>(i)] = sum;
        }
        thread_seconds[static_cast<std::size_t>(t)] =
            omp_get_wtime() - start;
      }
    }
    record_thread_profile("1d", thread_seconds,
                          nnz_per_thread_1d(a, num_threads));
    return;
  }

  // schedule(static) with the default chunking yields the even contiguous
  // row split of the paper's 1D algorithm.
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (index_t i = 0; i < m; ++i) {
    value_t sum = 0.0;
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

void spmv_2d(const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y, const NnzPartition& partition) {
  require(x.size() == static_cast<std::size_t>(a.num_cols()),
          "spmv_2d: x size mismatch");
  require(y.size() == static_cast<std::size_t>(a.num_rows()),
          "spmv_2d: y size mismatch");
  const int num_threads =
      static_cast<int>(partition.nnz_begin.size()) - 1;
  require(num_threads >= 1, "spmv_2d: empty partition");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  if (a.num_rows() == 0) return;

  // Partial sums of boundary rows: carry[t] is thread t's contribution to
  // its first row when that row *starts* in an earlier thread's range. The
  // starting thread assigns y[row]; continuing threads carry, and a serial
  // fix-up adds the carries, so no two threads ever write the same element.
  std::vector<value_t> carry(static_cast<std::size_t>(num_threads), 0.0);

  const bool profiled = obs::profiling_enabled();
  std::vector<double> thread_seconds(
      profiled ? static_cast<std::size_t>(num_threads) : 0, 0.0);

#pragma omp parallel num_threads(num_threads)
  {
    // Zero-fill the output first: rows whose nonzeros lie entirely outside a
    // thread's range (empty rows at partition boundaries) are never visited
    // by the sweep below.
    const index_t m = a.num_rows();
#pragma omp for schedule(static)
    for (index_t i = 0; i < m; ++i) {
      y[static_cast<std::size_t>(i)] = 0.0;
    }

    const int t = omp_get_thread_num();
    if (t < num_threads) {
      const double profile_start = profiled ? omp_get_wtime() : 0.0;
      const offset_t begin = partition.nnz_begin[static_cast<std::size_t>(t)];
      const offset_t end = partition.nnz_begin[static_cast<std::size_t>(t) + 1];
      if (begin < end) {
        const index_t first_row = partition.row_of[static_cast<std::size_t>(t)];
        const bool first_row_shared =
            begin > row_ptr[static_cast<std::size_t>(first_row)];
        index_t row = first_row;
        offset_t k = begin;
        value_t sum = 0.0;
        while (k < end) {
          const offset_t row_end = row_ptr[static_cast<std::size_t>(row) + 1];
          const offset_t stop = std::min(row_end, end);
          for (; k < stop; ++k) {
            sum += values[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(
                       col_idx[static_cast<std::size_t>(k)])];
          }
          const bool row_complete = (k == row_end);
          if (row_complete || k == end) {
            if (row == first_row && first_row_shared) {
              carry[static_cast<std::size_t>(t)] = sum;
            } else {
              y[static_cast<std::size_t>(row)] = sum;
            }
          }
          if (row_complete) {
            sum = 0.0;
            ++row;
          }
        }
      }
      if (profiled) {
        thread_seconds[static_cast<std::size_t>(t)] =
            omp_get_wtime() - profile_start;
      }
    }
  }

  if (profiled) {
    std::vector<offset_t> thread_nnz(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      thread_nnz[static_cast<std::size_t>(t)] =
          partition.nnz_begin[static_cast<std::size_t>(t) + 1] -
          partition.nnz_begin[static_cast<std::size_t>(t)];
    }
    record_thread_profile("2d", thread_seconds, thread_nnz);
  }

  // Serial fix-up: add carried partial sums into their rows.
  for (int t = 0; t < num_threads; ++t) {
    const offset_t begin = partition.nnz_begin[static_cast<std::size_t>(t)];
    const offset_t end = partition.nnz_begin[static_cast<std::size_t>(t) + 1];
    if (begin >= end) continue;
    const index_t row = partition.row_of[static_cast<std::size_t>(t)];
    if (begin > row_ptr[static_cast<std::size_t>(row)]) {
      y[static_cast<std::size_t>(row)] += carry[static_cast<std::size_t>(t)];
    }
  }
}

}  // namespace ordo
