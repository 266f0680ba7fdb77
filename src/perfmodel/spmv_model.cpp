#include "perfmodel/spmv_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spmv/spmv.hpp"

namespace ordo {
namespace {

constexpr int kLineBytes = 64;
constexpr int kDoublesPerLine = kLineBytes / static_cast<int>(sizeof(value_t));

index_t scaled_capacity_lines(double bytes, double scale) {
  return std::max<index_t>(
      2, static_cast<index_t>(bytes / scale / kLineBytes));
}

}  // namespace

ModelOptions model_options_from_env() {
  ModelOptions options;
  if (const char* scale = std::getenv("ORDO_CACHE_SCALE")) {
    options.cache_scale =
        std::max(1.0, parse_real_number(scale, "ORDO_CACHE_SCALE", 0.0));
  }
  if (const char* sync = std::getenv("ORDO_SYNC_US")) {
    options.sync_overhead_us = parse_real_number(sync, "ORDO_SYNC_US", 0.0);
  }
  return options;
}

SpmvModel::SpmvModel(const CsrMatrix& a, const ModelOptions& options)
    : a_(a), options_(options) {
  ORDO_SCOPE("model/reuse_profile");
  ORDO_COUNTER_ADD("model.reuse_profiles", 1);
  // x-access stream at cache-line granularity, in matrix (row-major) order.
  const auto col_idx = a.col_idx();
  std::vector<index_t> lines(col_idx.size());
  for (std::size_t k = 0; k < col_idx.size(); ++k) {
    lines[k] = col_idx[k] / kDoublesPerLine;
  }
  const index_t num_lines =
      a.num_cols() > 0 ? (a.num_cols() - 1) / kDoublesPerLine + 1 : 1;
  profile_ = analyze_reuse(lines, num_lines);

  row_length_changed_.assign(static_cast<std::size_t>(a.num_rows()), 0);
  for (index_t i = 1; i < a.num_rows(); ++i) {
    row_length_changed_[static_cast<std::size_t>(i)] =
        a.row_nonzeros(i) != a.row_nonzeros(i - 1) ? 1 : 0;
  }
}

SpmvEstimate SpmvModel::estimate(const SpmvKernel& kernel,
                                 const Architecture& arch) const {
  if (a_.num_nonzeros() == 0 || a_.num_rows() == 0) return SpmvEstimate{};
  const std::shared_ptr<const engine::Plan> plan =
      engine::prepare_plan(a_, kernel, arch.cores);
  return estimate(*plan, arch);
}

SpmvEstimate SpmvModel::estimate(const engine::Plan& plan,
                                 const Architecture& arch) const {
  const Architecture* const machine = &arch;
  return estimate(plan, std::span(&machine, 1)).front();
}

std::vector<SpmvEstimate> SpmvModel::estimate(
    const engine::Plan& plan,
    std::span<const Architecture* const> machines) const {
  ORDO_COUNTER_ADD("model.evaluations",
                   static_cast<std::int64_t>(machines.size()));
  ORDO_COUNTER_ADD("model.plan_passes", 1);
  const int threads = plan.partition.threads();
  std::vector<SpmvEstimate> estimates(machines.size());
  const offset_t nnz = a_.num_nonzeros();
  if (nnz == 0 || a_.num_rows() == 0 || threads <= 0) return estimates;

  // Effective per-thread cache capacities (inclusive hierarchy, scaled):
  // L1, L2 and LLC for each machine in turn. Each level holds at least two
  // lines more than the one inside it, so an access that misses a level
  // misses every smaller one too, and each level's misses can be counted on
  // their own.
  const double scale = options_.cache_scale;
  std::vector<index_t> capacities;
  capacities.reserve(3 * machines.size());
  for (const Architecture* arch : machines) {
    const index_t l1_lines =
        scaled_capacity_lines(arch->l1d_kib_per_core * 1024.0, scale);
    const index_t l2_lines =
        l1_lines + scaled_capacity_lines(arch->l2_kib_per_core * 1024.0, scale);
    const index_t llc_lines =
        l2_lines + scaled_capacity_lines(arch->l3_mib_per_socket * 1048576.0 *
                                             arch->sockets / threads,
                                         scale);
    capacities.insert(capacities.end(), {l1_lines, l2_lines, llc_lines});
  }
  std::vector<std::int64_t> misses(capacities.size());
  std::vector<double> max_thread_seconds(machines.size(), 0.0);

  // Thread boundaries in row and nonzero space come from the prepared plan.
  const auto row_ptr = a_.row_ptr();
  const std::vector<offset_t>& nnz_begin = plan.partition.nnz_begin;
  const std::vector<index_t>& row_begin = plan.partition.row_begin;
  const bool full_row_span =
      plan.partition.assignment != engine::RowAssignment::kNnzSplit;

  offset_t min_thread_nnz = nnz;
  offset_t max_thread_nnz = 0;
  for (int t = 0; t < threads; ++t) {
    const offset_t k0 = nnz_begin[static_cast<std::size_t>(t)];
    const offset_t k1 = nnz_begin[static_cast<std::size_t>(t) + 1];
    const offset_t thread_nnz = k1 - k0;
    min_thread_nnz = std::min(min_thread_nnz, thread_nnz);
    max_thread_nnz = std::max(max_thread_nnz, thread_nnz);
    if (thread_nnz == 0) continue;

    // Cache misses on the x gather within this thread's nonzero range, for
    // every machine's capacities in one walk.
    count_misses(profile_, k0, k1, capacities, misses);

    // Rows spanned and row-length transitions (branch behaviour). Plans
    // whose row boundaries cover the full row space (row blocks, merge
    // path) expose the span directly; for the pure nonzero split the span
    // runs from the row containing the first nonzero to the row containing
    // the last one — empty tail rows beyond the final nonzero belong to no
    // thread's sweep (they are zero-filled separately).
    const index_t r0 = row_begin[static_cast<std::size_t>(t)];
    index_t r1;
    if (full_row_span) {
      r1 = row_begin[static_cast<std::size_t>(t) + 1];
    } else {
      const auto last = std::upper_bound(row_ptr.begin(), row_ptr.end(), k1 - 1);
      r1 = static_cast<index_t>(std::distance(row_ptr.begin(), last) - 1) + 1;
    }
    const index_t thread_rows = std::max<index_t>(1, r1 - r0);
    std::int64_t branch_changes = 0;
    for (index_t i = std::max<index_t>(r0, 1); i < r1; ++i) {
      branch_changes += row_length_changed_[static_cast<std::size_t>(i)];
    }

    for (std::size_t m = 0; m < machines.size(); ++m) {
      const Architecture& arch = *machines[m];
      const std::int64_t miss_l1 = misses[3 * m];
      const std::int64_t miss_l2 = misses[3 * m + 1];
      const std::int64_t miss_llc = misses[3 * m + 2];
      const double compute_cycles =
          static_cast<double>(thread_nnz) * arch.cycles_per_nonzero +
          static_cast<double>(thread_rows) * arch.row_overhead_cycles +
          static_cast<double>(branch_changes) * arch.branch_miss_cycles;
      const double latency_cycles =
          static_cast<double>(miss_l1 - miss_l2) * arch.l2_hit_cycles +
          static_cast<double>(miss_l2 - miss_llc) * arch.l3_hit_cycles +
          static_cast<double>(miss_llc) * arch.dram_latency_cycles /
              arch.memory_level_parallelism;
      const double seconds_compute =
          (compute_cycles + latency_cycles) / (arch.freq_ghz * 1e9);

      const std::int64_t bytes =
          static_cast<std::int64_t>(thread_nnz) *
              (sizeof(index_t) + sizeof(value_t)) +
          static_cast<std::int64_t>(thread_rows) * 2 *
              static_cast<std::int64_t>(sizeof(value_t)) +
          miss_llc * kLineBytes;
      const double bw_per_thread =
          std::min(arch.bandwidth_gbs * 1e9 / threads,
                   arch.per_core_bandwidth_gbs * 1e9);
      const double seconds_memory = static_cast<double>(bytes) / bw_per_thread;

      max_thread_seconds[m] = std::max(
          max_thread_seconds[m], std::max(seconds_compute, seconds_memory));
      estimates[m].dram_bytes += bytes;
      estimates[m].x_dram_misses += miss_llc;
    }
  }

  for (std::size_t m = 0; m < machines.size(); ++m) {
    SpmvEstimate& estimate = estimates[m];
    estimate.min_thread_nnz = min_thread_nnz;
    estimate.max_thread_nnz = max_thread_nnz;
    estimate.mean_thread_nnz = static_cast<double>(nnz) / threads;
    estimate.imbalance =
        static_cast<double>(estimate.max_thread_nnz) / estimate.mean_thread_nnz;
    estimate.seconds = max_thread_seconds[m] +
                       options_.sync_overhead_us * 1e-6 *
                           (1.0 + static_cast<double>(threads) / 256.0);
    estimate.gflops = 2.0 * static_cast<double>(nnz) / estimate.seconds / 1e9;
  }
  return estimates;
}

SpmvEstimate estimate_spmv(const CsrMatrix& a, const SpmvKernel& kernel,
                           const Architecture& arch,
                           const ModelOptions& options) {
  return SpmvModel(a, options).estimate(kernel, arch);
}

}  // namespace ordo
