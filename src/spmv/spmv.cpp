#include "spmv/spmv.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "obs/stopwatch.hpp"
#include "pipeline/fork_join.hpp"

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

// One kernel launch: chunk(0), ..., chunk(threads - 1) on `threads` pool
// threads (pipeline::run_tasks), one chunk per thread. Under ORDO_PROFILE=1
// each chunk is timed and the launch recorded as spmv.<kernel>.*, with the
// chunks' nonzeros from chunk_nnz().
template <class Chunk, class ChunkNnz>
void launch(const char* kernel, int threads, const Chunk& chunk,
            const ChunkNnz& chunk_nnz) {
  const auto count = static_cast<std::size_t>(threads);
  if (!obs::profiling_enabled()) {
    pipeline::run_tasks(count, threads, chunk);
    return;
  }
  std::vector<double> chunk_seconds(count, 0.0);
  pipeline::run_tasks(count, threads, [&](std::size_t t) {
    const obs::Stopwatch watch;
    chunk(t);
    chunk_seconds[t] = watch.seconds();
  });
  record_thread_profile(kernel, chunk_seconds, chunk_nnz());
}

// Row boundary t of the even split of `num_rows` rows into `threads` blocks.
index_t even_row_bound(index_t num_rows, std::int64_t t, int threads) {
  return static_cast<index_t>((static_cast<std::int64_t>(num_rows) * t) /
                              threads);
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
    boundaries[static_cast<std::size_t>(t)] =
        even_row_bound(num_rows, t, num_threads);
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
  require(num_threads >= 1, "spmv_1d: need at least one thread");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const index_t m = a.num_rows();
  // Chunk t is row block t of partition_rows_even, the split the plan
  // records and the model prices.
  launch(
      "1d", num_threads,
      [&](std::size_t t) {
        const auto block = static_cast<std::int64_t>(t);
        const index_t end = even_row_bound(m, block + 1, num_threads);
        for (index_t i = even_row_bound(m, block, num_threads); i < end; ++i) {
          value_t sum = 0.0;
          for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
               k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            sum += values[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(
                       col_idx[static_cast<std::size_t>(k)])];
          }
          y[static_cast<std::size_t>(i)] = sum;
        }
      },
      [&] { return nnz_per_thread_1d(a, num_threads); });
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
  const index_t m = a.num_rows();

  if (m == 0) return;

  // Partial sums of boundary rows: carry[t] is thread t's contribution to
  // its first row when that row *starts* in an earlier thread's range. The
  // starting thread assigns y[row]; continuing threads carry, and a serial
  // fix-up adds the carries, so no two threads ever write the same element.
  std::vector<value_t> carry(static_cast<std::size_t>(num_threads), 0.0);

  const std::vector<offset_t>& nnz_begin = partition.nnz_begin;
  const std::vector<index_t>& row_of = partition.row_of;
  launch(
      "2d", num_threads,
      [&](std::size_t t) {
        const offset_t begin = nnz_begin[t];
        const offset_t end = nnz_begin[t + 1];
        const index_t first_row = row_of[t];
        const bool first_row_shared =
            begin > row_ptr[static_cast<std::size_t>(first_row)];
        // The sweep: one partial or whole row per step, in order. After
        // it, rows [first_row, row) are the ones this range wrote.
        index_t row = first_row;
        for (offset_t k = begin; k < end; ++row) {
          const offset_t stop =
              std::min(row_ptr[static_cast<std::size_t>(row) + 1], end);
          value_t sum = 0.0;
          for (; k < stop; ++k) {
            sum += values[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(
                       col_idx[static_cast<std::size_t>(k)])];
          }
          if (row == first_row && first_row_shared) {
            carry[t] = sum;
          } else {
            y[static_cast<std::size_t>(row)] = sum;
          }
        }
        // Zero the rows of this thread's share that no range's sweep
        // writes: empty rows at range boundaries and at either end. The
        // shares are [row_of[t], row_of[t + 1]), the first from row 0 and
        // the last to m. A range's sweep stays within rows
        // [row_of[t], row_of[t + 1]], so inside its share only this range
        // writes, except its first row when shared: an earlier range
        // started that row and writes it.
        const auto zero = [&](index_t from, index_t to) {
          for (index_t i = from; i < to; ++i) {
            y[static_cast<std::size_t>(i)] = 0.0;
          }
        };
        const std::size_t last = static_cast<std::size_t>(num_threads) - 1;
        if (t == 0) zero(0, first_row);
        zero(std::max<index_t>(row, first_row + (first_row_shared ? 1 : 0)),
             t == last ? m : row_of[t + 1]);
      },
      [&] {
        std::vector<offset_t> chunk_nnz(static_cast<std::size_t>(num_threads));
        for (std::size_t t = 0; t < chunk_nnz.size(); ++t) {
          chunk_nnz[t] = nnz_begin[t + 1] - nnz_begin[t];
        }
        return chunk_nnz;
      });

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
