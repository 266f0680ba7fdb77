// Execution-time model for parallel CSR SpMV on the Table 2 machines.
//
// Per-thread cost combines three components, mirroring how the paper
// explains its measurements (Sections 4.4-4.5):
//
//  * a compute term — per-nonzero issue cost, per-row loop overhead, and a
//    branch-misprediction penalty whenever consecutive rows change length
//    (the effect Gray ordering targets);
//  * a latency term — x-vector gather misses classified by *exact* LRU
//    stack-distance analysis against the architecture's L1/L2/LLC-share
//    capacities, with DRAM misses overlapped by the architecture's
//    memory-level parallelism;
//  * a bandwidth term — streaming bytes (CSR arrays, y, and x lines missing
//    the LLC) over the thread's share of aggregate DRAM bandwidth.
//
// Thread time is the roofline max of the compute+latency and bandwidth
// terms; kernel time is the max over threads (this is where 1D load
// imbalance bites) plus a parallel-region overhead. Cache capacities are
// divided by ModelOptions::cache_scale so the scaled-down corpus retains the
// paper's matrix-size/cache-size ratios (DESIGN.md, substitution table).
//
// The per-thread boundaries the cost loop walks come from the engine: the
// model evaluates a prepared plan's ThreadPartition rather than recomputing
// row/nonzero splits itself, so the partition it prices is — by
// construction — the one the execution layer runs.
#pragma once

#include <span>
#include <vector>

#include "engine/engine.hpp"
#include "perfmodel/arch.hpp"
#include "perfmodel/stack_distance.hpp"
#include "sparse/csr.hpp"

namespace ordo {

struct ModelOptions {
  /// Cache capacities are divided by this factor (see header comment).
  double cache_scale = 64.0;
  /// Fixed parallel-region (fork/barrier) overhead in microseconds.
  double sync_overhead_us = 0.5;
};

/// Reads ModelOptions overrides from the ORDO_CACHE_SCALE (floored at 1) and
/// ORDO_SYNC_US environment variables; returns defaults otherwise. A value
/// that is not a real number >= 0 throws invalid_argument_error.
ModelOptions model_options_from_env();

/// One simulated SpMV measurement — the quantities the paper's artifact
/// records per (matrix, ordering, machine).
struct SpmvEstimate {
  double seconds = 0.0;       ///< time of one SpMV iteration
  double gflops = 0.0;        ///< 2·nnz / seconds / 1e9
  double imbalance = 1.0;     ///< max thread nnz / mean thread nnz
  std::int64_t min_thread_nnz = 0;
  std::int64_t max_thread_nnz = 0;
  double mean_thread_nnz = 0.0;
  std::int64_t dram_bytes = 0;      ///< total modelled DRAM traffic
  std::int64_t x_dram_misses = 0;   ///< x-gather lines missing the LLC
};

/// Reusable per-matrix model state: the x-access reuse profile is computed
/// once and shared across all (kernel, architecture) evaluations. One plan
/// is priced for a whole group of machines in a single walk over each
/// thread's nonzeros: only the cache capacities differ between machines, so
/// the miss counts for all of them come from one pass (DESIGN.md §22). The
/// matrix must outlive the model.
class SpmvModel {
 public:
  explicit SpmvModel(const CsrMatrix& a,
                     const ModelOptions& options = ModelOptions{});

  /// Simulates one SpMV iteration of the given kernel on the given machine.
  /// The plan is fetched through the engine's plan cache for arch.cores
  /// threads.
  SpmvEstimate estimate(const SpmvKernel& kernel,
                        const Architecture& arch) const;

  /// Simulates one SpMV iteration against an already-prepared plan (must
  /// have been prepared for the same matrix): the group overload for one
  /// machine.
  SpmvEstimate estimate(const engine::Plan& plan,
                        const Architecture& arch) const;

  /// Simulates one SpMV iteration of the plan on every machine in
  /// `machines`, whatever their core counts (the plan fixes the threads);
  /// estimates[i] belongs to machines[i] and equals, bit for bit, what a
  /// group of that machine alone gives. This is the core evaluation.
  std::vector<SpmvEstimate> estimate(
      const engine::Plan& plan,
      std::span<const Architecture* const> machines) const;

 private:
  const CsrMatrix& a_;
  ModelOptions options_;
  ReuseProfile profile_;
  /// row_length_changed_[i]: row i's nonzero count differs from row i-1's.
  std::vector<unsigned char> row_length_changed_;
};

/// One-shot convenience wrapper around SpmvModel.
SpmvEstimate estimate_spmv(const CsrMatrix& a, const SpmvKernel& kernel,
                           const Architecture& arch,
                           const ModelOptions& options = ModelOptions{});

}  // namespace ordo
