// Registers the built-in SpMV kernels with ordo::engine.
//
// Each descriptor adapts one raw kernel from spmv.hpp / kernels_extra.hpp
// to the uniform prepare/execute interface: prepare() builds the kernel's
// reusable partition (the inspector phase the plan cache amortises) and
// publishes it through the uniform ThreadPartition view the performance
// model and the experiment layer consume; execute() runs one product
// against it.
//
// This is an explicit registration hook rather than static-initializer
// self-registration because ordo is a static library: the linker may drop a
// translation unit nothing references, and a registry that silently lost
// its kernels would be worse than one wired by hand. The engine calls
// register_builtin_kernels() lazily, exactly once, from its accessors.

#include <algorithm>
#include <memory>

#include "engine/plan.hpp"
#include "engine/registry.hpp"
#include "spmv/kernels_extra.hpp"
#include "spmv/spmv.hpp"

namespace ordo::engine {
namespace {

// --- csr_1d: even row blocks (the study's 1D algorithm) --------------------

engine::ThreadPartition row_block_partition(const CsrMatrix& a, int threads) {
  engine::ThreadPartition partition;
  partition.assignment = engine::RowAssignment::kRowBlocks;
  partition.row_begin = partition_rows_even(a.num_rows(), threads);
  partition.nnz_begin.resize(static_cast<std::size_t>(threads) + 1);
  const auto row_ptr = a.row_ptr();
  for (int t = 0; t <= threads; ++t) {
    partition.nnz_begin[static_cast<std::size_t>(t)] = row_ptr[
        static_cast<std::size_t>(partition.row_begin[static_cast<std::size_t>(t)])];
  }
  return partition;
}

Plan prepare_csr_1d(const CsrMatrix& a, int threads) {
  Plan plan;
  plan.threads = threads;
  plan.partition = row_block_partition(a, threads);
  return plan;
}

void execute_csr_1d(const Plan& plan, const CsrMatrix& a,
                    std::span<const value_t> x, std::span<value_t> y) {
  spmv_1d(a, x, y, plan.threads);
}

// --- csr_2d: even nonzero split (the study's 2D algorithm) -----------------

struct NnzPartitionState final : PlanState {
  NnzPartition partition;
};

Plan prepare_csr_2d(const CsrMatrix& a, int threads) {
  auto state = std::make_shared<NnzPartitionState>();
  state->partition = partition_nonzeros_even(a, threads);

  Plan plan;
  plan.threads = threads;
  plan.partition.assignment = RowAssignment::kNnzSplit;
  plan.partition.nnz_begin = state->partition.nnz_begin;
  plan.partition.row_begin = state->partition.row_of;
  plan.state = std::move(state);
  return plan;
}

void execute_csr_2d(const Plan& plan, const CsrMatrix& a,
                    std::span<const value_t> x, std::span<value_t> y) {
  require(plan.state != nullptr, "csr_2d: plan has no partition state");
  const auto& state = static_cast<const NnzPartitionState&>(*plan.state);
  spmv_2d(a, x, y, state.partition);
}

// --- merge: merge-path split over rows + nonzeros --------------------------

struct MergePathState final : PlanState {
  MergePathPartition partition;
};

Plan prepare_merge(const CsrMatrix& a, int threads) {
  auto state = std::make_shared<MergePathState>();
  state->partition = partition_merge_path(a, threads);

  Plan plan;
  plan.threads = threads;
  plan.partition.assignment = RowAssignment::kMergePath;
  plan.partition.nnz_begin = state->partition.nnz_begin;
  plan.partition.row_begin = state->partition.row_begin;
  plan.state = std::move(state);
  return plan;
}

void execute_merge(const Plan& plan, const CsrMatrix& a,
                   std::span<const value_t> x, std::span<value_t> y) {
  require(plan.state != nullptr, "merge: plan has no partition state");
  const auto& state = static_cast<const MergePathState&>(*plan.state);
  spmv_merge(a, x, y, state.partition);
}

// --- transpose: y = Aᵀ·x, row-parallel with atomic scatter -----------------

Plan prepare_transpose(const CsrMatrix& a, int threads) {
  // Threads sweep even row blocks of A, so the partition (and the modelled
  // per-thread work) is the 1D kernel's; the scatter targets are columns.
  Plan plan;
  plan.threads = threads;
  plan.partition = row_block_partition(a, threads);
  return plan;
}

void execute_transpose(const Plan& plan, const CsrMatrix& a,
                       std::span<const value_t> x, std::span<value_t> y) {
  spmv_transpose_parallel(a, x, y, plan.threads);
}

// --- symmetric_lower: y = A·x from the stored lower triangle ---------------

Plan prepare_symmetric_lower(const CsrMatrix& a, int threads) {
  (void)threads;  // serial reference kernel: one block owns everything
  Plan plan;
  plan.threads = 1;
  plan.partition.assignment = RowAssignment::kRowBlocks;
  plan.partition.row_begin = {0, a.num_rows()};
  plan.partition.nnz_begin = {0, a.num_nonzeros()};
  return plan;
}

void execute_symmetric_lower(const Plan& plan, const CsrMatrix& a,
                             std::span<const value_t> x,
                             std::span<value_t> y) {
  (void)plan;
  spmv_symmetric_lower_serial(a, x, y);
}

}  // namespace

void register_builtin_kernels() {
  register_kernel({
      .id = "csr_1d",
      .display_name = "1D",
      .summary = "even row blocks, one per thread (partition_rows_even)",
      .caps = {},
      .prepare = prepare_csr_1d,
      .execute = execute_csr_1d,
  });
  register_kernel({
      .id = "csr_2d",
      .display_name = "2D",
      .summary = "even nonzero split with shared-row fix-up "
                 "(simplified merge-based kernel)",
      .caps = {},
      .prepare = prepare_csr_2d,
      .execute = execute_csr_2d,
  });
  register_kernel({
      .id = "merge",
      .display_name = "merge-path",
      .summary = "even rows+nonzeros merge-path split "
                 "(Merrill & Garland 2016)",
      .caps = {},
      .prepare = prepare_merge,
      .execute = execute_merge,
  });
  register_kernel({
      .id = "transpose",
      .display_name = "transpose",
      .summary = "y = A^T x, row-parallel atomic scatter "
                 "(float summation order varies run to run)",
      .caps = {.deterministic = false, .transposed_output = true},
      .prepare = prepare_transpose,
      .execute = execute_transpose,
  });
  register_kernel({
      .id = "symmetric_lower",
      .display_name = "symmetric-lower",
      .summary = "serial y = A x from the stored lower triangle of a "
                 "symmetric matrix",
      .caps = {.parallel = false, .needs_symmetric = true},
      .prepare = prepare_symmetric_lower,
      .execute = execute_symmetric_lower,
  });
}

}  // namespace ordo::engine
