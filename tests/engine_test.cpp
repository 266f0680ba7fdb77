// Tests for ordo::engine (ctest label `engine`): kernel conformance — every
// registered kernel against the serial reference on edge-case matrices —
// plus the registry contract, plan thread-partition invariants, the LRU plan
// cache, and the study-facing kernel-set resolution and determinism gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "pipeline/study_pipeline.hpp"
#include "sparse/csr_ops.hpp"
#include "spmv/kernels_extra.hpp"
#include "spmv/spmv.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

namespace fs = std::filesystem;

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (value_t& v : x) v = dist(rng);
  return x;
}

// A registered extension kernel: single-threaded delegation to spmv_serial
// behind a trivial one-block plan. Registering it at namespace scope proves
// the KernelRegistrar path works from outside kernel_descriptors.cpp, and
// the conformance loop below picks it up like any built-in.
engine::Plan prepare_test_serial(const CsrMatrix& a, int /*threads*/) {
  engine::Plan plan;
  plan.threads = 1;
  plan.partition.assignment = engine::RowAssignment::kRowBlocks;
  plan.partition.row_begin = {0, a.num_rows()};
  plan.partition.nnz_begin = {0, a.num_nonzeros()};
  return plan;
}
void execute_test_serial(const engine::Plan&, const CsrMatrix& a,
                         std::span<const value_t> x, std::span<value_t> y) {
  spmv_serial(a, x, y);
}
const engine::KernelRegistrar test_serial_registrar{{
    .id = "test_serial",
    .display_name = "test-serial",
    .summary = "registered by engine_test.cpp to exercise extension",
    .caps = {.parallel = false},
    .prepare = &prepare_test_serial,
    .execute = &execute_test_serial,
}};

// ---------------------------------------------------------------------------
// Edge-case matrices (the conformance corpus). Each case is a full general
// matrix; symmetric-input kernels get the symmetric subset below.

struct EdgeCase {
  std::string name;
  CsrMatrix matrix;
};

CsrMatrix empty_matrix() { return CsrMatrix::from_coo(CooMatrix(0, 0)); }

CsrMatrix all_empty_rows(index_t n) {
  return CsrMatrix::from_coo(CooMatrix(n, n));
}

// One row holds every nonzero; all other rows are empty. Stresses the row
// splits (most threads get zero rows' worth of work).
CsrMatrix single_dense_row(index_t n) {
  CooMatrix coo(n, n);
  for (index_t j = 0; j < n; ++j) coo.add(n / 2, j, 1.0 + 0.01 * j);
  return CsrMatrix::from_coo(coo);
}

CsrMatrix rectangular(index_t rows, index_t cols, std::uint64_t seed) {
  CooMatrix coo(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, cols - 1);
  for (index_t i = 0; i < rows; ++i) {
    coo.add(i, dist(rng), 2.0);
    coo.add(i, dist(rng), -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

// More rows than any tested thread count, one nonzero each — every boundary
// of every partition kind lands on a distinct single-nonzero row.
CsrMatrix diagonal(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0 + 0.5 * (i % 7));
  return CsrMatrix::from_coo(coo);
}

std::vector<EdgeCase> general_cases() {
  std::vector<EdgeCase> cases;
  cases.push_back({"empty", empty_matrix()});
  cases.push_back({"all_empty_rows", all_empty_rows(257)});
  cases.push_back({"single_dense_row", single_dense_row(193)});
  cases.push_back({"rectangular", rectangular(150, 290, 11)});
  cases.push_back({"diagonal", diagonal(97)});
  cases.push_back({"random_square", testing::random_square(200, 6.0, 42)});
  return cases;
}

// Symmetric matrices (stored in full) for needs_symmetric kernels, which
// consume the lower triangle and are checked against the full reference.
std::vector<EdgeCase> symmetric_cases() {
  std::vector<EdgeCase> cases;
  cases.push_back({"empty", empty_matrix()});
  cases.push_back({"all_empty_rows", all_empty_rows(257)});
  cases.push_back({"diagonal", diagonal(97)});
  cases.push_back({"grid_laplacian", testing::grid_laplacian_2d(13, 17)});
  cases.push_back({"random_symmetric", testing::random_symmetric(180, 5.0, 7)});
  return cases;
}

check::ThreadPartitionKind to_check_kind(engine::RowAssignment assignment) {
  switch (assignment) {
    case engine::RowAssignment::kRowBlocks:
      return check::ThreadPartitionKind::kRowBlocks;
    case engine::RowAssignment::kNnzSplit:
      return check::ThreadPartitionKind::kNnzSplit;
    case engine::RowAssignment::kMergePath:
      return check::ThreadPartitionKind::kMergePath;
  }
  return check::ThreadPartitionKind::kRowBlocks;
}

// Runs `kernel` on `input` through an engine plan and compares against the
// serial reference computed on `reference` (== input except for symmetric
// kernels, which see the lower triangle of `reference`).
void expect_kernel_matches_reference(const engine::KernelDesc& desc,
                                     const CsrMatrix& input,
                                     const CsrMatrix& reference, int threads,
                                     const std::string& context) {
  SCOPED_TRACE(context);
  // y = Aᵀ·x consumes an x of num_rows elements and fills num_cols outputs.
  const index_t out_n =
      desc.caps.transposed_output ? input.num_cols() : reference.num_rows();
  const index_t in_n =
      desc.caps.transposed_output ? input.num_rows() : input.num_cols();
  const std::vector<value_t> x = random_vector(in_n, 99);
  std::vector<value_t> expected(static_cast<std::size_t>(out_n));
  if (desc.caps.transposed_output) {
    spmv_transpose_serial(input, x, expected);
  } else {
    spmv_serial(reference, x, expected);
  }

  const engine::Plan plan = engine::prepare(input, desc.id, threads);
  EXPECT_EQ(plan.kernel, desc.id);
  ASSERT_GE(plan.partition.nnz_begin.size(), 2u);
  // Every plan must satisfy the check:: partition contract, whatever the
  // build's ORDO_CHECK setting — call the validator directly.
  ASSERT_NO_THROW(check::validate_thread_partition_raw(
      input.num_rows(), input.row_ptr(),
      to_check_kind(plan.partition.assignment), plan.partition.row_begin,
      plan.partition.nnz_begin, context));
  EXPECT_EQ(plan.partition.total_nnz(), input.num_nonzeros());

  std::vector<value_t> y(static_cast<std::size_t>(out_n), -7.0);
  engine::execute(plan, input, x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], expected[i], 1e-10) << context << " y[" << i << "]";
  }
}

// ---------------------------------------------------------------------------
// Conformance: every registered kernel, every edge case, several thread
// counts (including more threads than rows for the small cases).

TEST(EngineConformance, EveryRegisteredKernelMatchesSerialOnEdgeCases) {
  const std::vector<std::string> ids = engine::kernel_ids();
  ASSERT_FALSE(ids.empty());
  for (const std::string& id : ids) {
    const engine::KernelDesc& desc = engine::kernel(id);
    const std::vector<EdgeCase> cases =
        desc.caps.needs_symmetric ? symmetric_cases() : general_cases();
    for (const EdgeCase& edge : cases) {
      const CsrMatrix input = desc.caps.needs_symmetric
                                  ? lower_triangle(edge.matrix)
                                  : edge.matrix;
      for (const int threads : {1, 3, 8}) {
        expect_kernel_matches_reference(
            desc, input, edge.matrix, threads,
            id + "/" + edge.name + "/t" + std::to_string(threads));
      }
    }
  }
}

TEST(EngineConformance, MoreRowsOfOneNnzThanThreads) {
  // The ISSUE's ">threads rows of 1 nnz" case, explicitly at a thread count
  // smaller than the row count so every thread owns full single-nonzero rows.
  const CsrMatrix a = diagonal(41);
  const std::vector<value_t> x = random_vector(a.num_cols(), 3);
  std::vector<value_t> expected(static_cast<std::size_t>(a.num_rows()));
  spmv_serial(a, x, expected);
  for (const std::string id : {"csr_1d", "csr_2d", "merge"}) {
    const engine::Plan plan = engine::prepare(a, id, 8);
    EXPECT_EQ(plan.partition.threads(), 8) << id;
    std::vector<value_t> y(expected.size());
    engine::execute(plan, a, x, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_DOUBLE_EQ(y[i], expected[i]) << id << " y[" << i << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Registry contract.

TEST(EngineRegistry, BuiltinsAreRegisteredWithDeclaredCapabilities) {
  const std::vector<std::string> ids = engine::kernel_ids();
  ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (const char* id :
       {"csr_1d", "csr_2d", "merge", "transpose", "symmetric_lower"}) {
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), id) != ids.end()) << id;
  }

  const engine::KernelDesc& k1d = engine::kernel("csr_1d");
  EXPECT_EQ(k1d.display_name, "1D");
  EXPECT_TRUE(k1d.caps.parallel);
  EXPECT_TRUE(k1d.caps.deterministic);
  EXPECT_FALSE(k1d.caps.needs_symmetric);
  EXPECT_FALSE(k1d.caps.transposed_output);
  EXPECT_EQ(engine::kernel("csr_2d").display_name, "2D");

  // Satellite: the atomic-scatter transpose kernel is declared
  // nondeterministic (float summation order depends on scheduling).
  const engine::KernelDesc& transpose = engine::kernel("transpose");
  EXPECT_FALSE(transpose.caps.deterministic);
  EXPECT_TRUE(transpose.caps.transposed_output);

  const engine::KernelDesc& sym = engine::kernel("symmetric_lower");
  EXPECT_TRUE(sym.caps.needs_symmetric);
  EXPECT_FALSE(sym.caps.parallel);
}

TEST(EngineRegistry, LookupOfUnknownIdFails) {
  EXPECT_EQ(engine::find_kernel("no_such_kernel"), nullptr);
  EXPECT_THROW(engine::kernel("no_such_kernel"), invalid_argument_error);
  EXPECT_THROW(engine::prepare(diagonal(4), "no_such_kernel", 2),
               invalid_argument_error);
  try {
    engine::kernel("no_such_kernel");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    // The message lists the registered ids so typos are self-diagnosing.
    EXPECT_NE(std::string(e.what()).find("csr_1d"), std::string::npos);
  }
}

TEST(EngineRegistry, RejectsDuplicateAndMalformedRegistrations) {
  engine::KernelDesc dup = engine::kernel("csr_1d");
  EXPECT_THROW(engine::register_kernel(dup), invalid_argument_error);

  engine::KernelDesc unnamed = engine::kernel("csr_1d");
  unnamed.id.clear();
  EXPECT_THROW(engine::register_kernel(unnamed), invalid_argument_error);

  engine::KernelDesc no_execute = engine::kernel("csr_1d");
  no_execute.id = "engine_test_no_execute";
  no_execute.execute = nullptr;
  EXPECT_THROW(engine::register_kernel(no_execute), invalid_argument_error);
}

TEST(EngineRegistry, RegistrarExtensionKernelIsVisible) {
  const std::vector<std::string> ids = engine::kernel_ids();
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), "test_serial") != ids.end());
  EXPECT_EQ(engine::kernel("test_serial").display_name, "test-serial");
}

TEST(EngineRegistry, SpmvKernelWrapperKeepsEnumLikeCallSites) {
  EXPECT_EQ(SpmvKernel{}.id(), "csr_1d");  // default = the study baseline
  EXPECT_EQ(SpmvKernel::k1D.id(), "csr_1d");
  EXPECT_EQ(SpmvKernel::k2D.id(), "csr_2d");
  EXPECT_EQ(spmv_kernel_name(SpmvKernel::k1D), "1D");
  EXPECT_EQ(spmv_kernel_name(SpmvKernel::k2D), "2D");
  EXPECT_EQ(spmv_kernel_name(SpmvKernel{"unregistered_id"}),
            "unregistered_id");  // falls back to the raw id
  EXPECT_TRUE(SpmvKernel::k1D < SpmvKernel::k2D);  // map-key ordering
  EXPECT_EQ(SpmvKernel{"csr_2d"}, SpmvKernel::k2D);
}

TEST(EngineRegistry, PrepareRejectsNonPositiveThreadCounts) {
  const CsrMatrix a = diagonal(8);
  EXPECT_THROW(engine::prepare(a, "csr_1d", 0), invalid_argument_error);
  EXPECT_THROW(engine::prepare(a, "csr_1d", -3), invalid_argument_error);
}

// ---------------------------------------------------------------------------
// Plan-level helpers: ThreadWork math and the partition validator.

TEST(EnginePlan, ThreadWorkSummarisesNonzeroDistribution) {
  engine::ThreadPartition partition;
  partition.assignment = engine::RowAssignment::kNnzSplit;
  partition.nnz_begin = {0, 3, 5, 12};
  partition.row_begin = {0, 1, 2, 3};

  const std::vector<offset_t> counts = engine::nnz_per_thread(partition);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 7);

  const engine::ThreadWork work = engine::thread_work(partition);
  EXPECT_EQ(work.min_nnz, 2);
  EXPECT_EQ(work.max_nnz, 7);
  EXPECT_DOUBLE_EQ(work.mean_nnz, 4.0);
  EXPECT_DOUBLE_EQ(work.imbalance, 7.0 / 4.0);
}

TEST(EnginePlan, ThreadWorkOfEmptyPartitionMatchesModelConvention) {
  engine::ThreadPartition partition;
  partition.nnz_begin = {0, 0, 0};
  partition.row_begin = {0, 0, 0};
  const engine::ThreadWork work = engine::thread_work(partition);
  EXPECT_EQ(work.min_nnz, 0);
  EXPECT_EQ(work.max_nnz, 0);
  EXPECT_DOUBLE_EQ(work.mean_nnz, 0.0);
  EXPECT_DOUBLE_EQ(work.imbalance, 1.0);
}

class EnginePlanValidator : public ::testing::Test {
 protected:
  // 3 rows of 2 nonzeros each: row_ptr = {0, 2, 4, 6}.
  const index_t num_rows_ = 3;
  const std::vector<offset_t> row_ptr_ = {0, 2, 4, 6};

  void expect_plan_violation(check::ThreadPartitionKind kind,
                             const std::vector<index_t>& row_begin,
                             const std::vector<offset_t>& nnz_begin) {
    try {
      check::validate_thread_partition_raw(num_rows_, row_ptr_, kind,
                                           row_begin, nnz_begin, "test");
      FAIL() << "expected InvariantViolation";
    } catch (const check::InvariantViolation& e) {
      EXPECT_EQ(e.kind(), check::ViolationKind::kPlan) << e.what();
    }
  }
};

TEST_F(EnginePlanValidator, AcceptsWellFormedPartitions) {
  using Kind = check::ThreadPartitionKind;
  EXPECT_NO_THROW(check::validate_thread_partition_raw(
      num_rows_, row_ptr_, Kind::kRowBlocks, std::vector<index_t>{0, 1, 3},
      std::vector<offset_t>{0, 2, 6}, "test"));
  // nnz-split boundary mid-row: nonzero 3 lies inside row 1 ([2, 4)).
  EXPECT_NO_THROW(check::validate_thread_partition_raw(
      num_rows_, row_ptr_, Kind::kNnzSplit, std::vector<index_t>{0, 1, 2},
      std::vector<offset_t>{0, 3, 6}, "test"));
  // merge-path boundary at a row end (nnz_begin == row_ptr[row + 1]).
  EXPECT_NO_THROW(check::validate_thread_partition_raw(
      num_rows_, row_ptr_, Kind::kMergePath, std::vector<index_t>{0, 1, 3},
      std::vector<offset_t>{0, 4, 6}, "test"));
}

TEST_F(EnginePlanValidator, RejectsMalformedPartitions) {
  using Kind = check::ThreadPartitionKind;
  // Row-block boundary not aligned with a row start.
  expect_plan_violation(Kind::kRowBlocks, {0, 1, 3}, {0, 3, 6});
  // Nonzero boundaries not ending at nnz.
  expect_plan_violation(Kind::kRowBlocks, {0, 1, 3}, {0, 2, 4});
  // Non-monotone row boundaries.
  expect_plan_violation(Kind::kRowBlocks, {0, 2, 1}, {0, 4, 6});
  // Mismatched boundary-array lengths.
  expect_plan_violation(Kind::kRowBlocks, {0, 3}, {0, 2, 6});
  // Nnz-split boundary nonzero outside its claimed row: nonzero 5 is in
  // row 2 ([4, 6)), not row 1.
  expect_plan_violation(Kind::kNnzSplit, {0, 1, 2}, {0, 5, 6});
  // Full-row-span kinds must cover rows 0..num_rows.
  expect_plan_violation(Kind::kMergePath, {0, 1, 2}, {0, 4, 6});
}

// ---------------------------------------------------------------------------
// Plan cache: hits, LRU eviction, structure-only fingerprinting.

TEST(EnginePlanCache, HitsEvictionsAndStats) {
  engine::PlanCache cache(2);
  const CsrMatrix a = diagonal(10);
  const CsrMatrix b = single_dense_row(10);
  const CsrMatrix c = testing::random_square(24, 3.0, 5);

  const auto plan_a = cache.get(a, "csr_1d", 4);  // miss          lru: [a]
  ASSERT_NE(plan_a, nullptr);
  cache.get(b, "csr_1d", 4);                     // miss          lru: [b a]
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(a, "csr_1d", 4), plan_a);  // hit: identical object,
                                                 // refreshes a   lru: [a b]
  cache.get(c, "csr_1d", 4);                     // miss, evicts the LRU
                                                 // entry b       lru: [c a]
  EXPECT_EQ(cache.size(), 2u);
  // `a` survived the eviction because the hit refreshed it; `b` did not.
  EXPECT_EQ(cache.get(a, "csr_1d", 4), plan_a);  // hit           lru: [a c]
  cache.get(b, "csr_1d", 4);                     // miss again (evicts c)

  const engine::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.lookups(), 6);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 6.0);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EnginePlanCache, DistinctKernelAndThreadsGetDistinctEntries) {
  engine::PlanCache cache(8);
  const CsrMatrix a = testing::grid_laplacian_2d(6, 6);
  const auto p1 = cache.get(a, "csr_1d", 2);
  EXPECT_NE(cache.get(a, "csr_1d", 4), p1);
  EXPECT_NE(cache.get(a, "csr_2d", 2), p1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(EnginePlanCache, FingerprintCoversRowStructureOnly) {
  // Same row_ptr, different columns/values: plans are pure functions of the
  // row structure, so both matrices intentionally share one cache entry.
  CooMatrix coo1(4, 4), coo2(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    coo1.add(i, i, 1.0);
    coo2.add(i, (i + 1) % 4, 9.0);
  }
  const CsrMatrix m1 = CsrMatrix::from_coo(coo1);
  const CsrMatrix m2 = CsrMatrix::from_coo(coo2);
  EXPECT_EQ(engine::matrix_fingerprint(m1), engine::matrix_fingerprint(m2));

  // The row-structure hash is memoized on the shared arrays: a copy reads
  // the memo its original filled, and an equal structure built separately
  // computes the same value afresh.
  const CsrMatrix copy = m1;
  EXPECT_EQ(engine::matrix_fingerprint(copy), engine::matrix_fingerprint(m1));
  EXPECT_EQ(engine::matrix_fingerprint(CsrMatrix::from_coo(coo1)),
            engine::matrix_fingerprint(m1));

  engine::PlanCache cache(4);
  EXPECT_EQ(cache.get(m1, "csr_1d", 2), cache.get(m2, "csr_1d", 2));

  // A different row distribution (same dims and nnz) must not collide.
  CooMatrix coo3(4, 4);
  for (index_t j = 0; j < 4; ++j) coo3.add(0, j, 1.0);
  EXPECT_NE(engine::matrix_fingerprint(m1),
            engine::matrix_fingerprint(CsrMatrix::from_coo(coo3)));
}

TEST(EnginePlanCache, GlobalPrepareInPlanHitsOnRepeatedLookup) {
  const CsrMatrix a = testing::random_square(60, 4.0, 21);
  const engine::PlanCache::Stats before = engine::plan_cache().stats();
  const auto first = engine::prepare_plan(a, SpmvKernel::k2D, 6);
  const auto second = engine::prepare_plan(a, "csr_2d", 6);
  EXPECT_EQ(first, second);
  const engine::PlanCache::Stats after = engine::plan_cache().stats();
  EXPECT_GE(after.hits - before.hits, 1);
}

// ---------------------------------------------------------------------------
// Study-facing kernel-set resolution and the checkpoint determinism gate.

TEST(EngineStudy, KernelSetDefaultsToTheStudiedPair) {
  const std::vector<SpmvKernel> kernels = study_kernels(StudyOptions{});
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0], SpmvKernel::k1D);
  EXPECT_EQ(kernels[1], SpmvKernel::k2D);
}

TEST(EngineStudy, KernelSetExtendsAndDeduplicates) {
  StudyOptions options;
  options.kernels = {"merge", "csr_1d", "merge"};
  const std::vector<SpmvKernel> kernels = study_kernels(options);
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0], SpmvKernel::k1D);
  EXPECT_EQ(kernels[1], SpmvKernel::k2D);
  EXPECT_EQ(kernels[2], SpmvKernel{"merge"});
}

TEST(EngineStudy, KernelSetRejectsUnknownAndIncompatibleIds) {
  StudyOptions unknown;
  unknown.kernels = {"no_such_kernel"};
  EXPECT_THROW(study_kernels(unknown), invalid_argument_error);

  // needs_symmetric kernels cannot be enrolled: the corpus stores full
  // matrices, not lower triangles.
  StudyOptions symmetric;
  symmetric.kernels = {"symmetric_lower"};
  EXPECT_THROW(study_kernels(symmetric), invalid_argument_error);
}

TEST(EngineStudy, ResultsFilenamesKeepTheArtifactNamesForThePair) {
  const Architecture& arch = architecture_by_name("Milan B");
  EXPECT_EQ(results_filename(SpmvKernel::k1D, arch, 490),
            "csr_1d_milan_b_" + std::to_string(arch.cores) +
                "_threads_ss490.txt");
  EXPECT_EQ(results_filename(SpmvKernel::k2D, arch, 490),
            "csr_2d_milan_b_" + std::to_string(arch.cores) +
                "_threads_ss490.txt");
  EXPECT_EQ(results_filename(SpmvKernel{"merge"}, arch, 8),
            "merge_milan_b_" + std::to_string(arch.cores) +
                "_threads_ss8.txt");
}

TEST(EngineStudy, CheckpointedSweepRefusesNondeterministicKernels) {
  const std::vector<CorpusEntry> corpus;  // gate fires before any compute
  const std::string dir =
      ::testing::TempDir() + "/ordo_engine_nondeterminism_gate";
  fs::create_directories(dir);

  StudyOptions options;
  options.kernels = {"transpose"};
  options.checkpoint_dir = dir;
  EXPECT_THROW(pipeline::run_study_pipeline(corpus, options),
               invalid_argument_error);

  // Opting in, or running without a checkpoint journal, is allowed.
  options.allow_nondeterministic = true;
  EXPECT_NO_THROW(pipeline::run_study_pipeline(corpus, options));
  options.allow_nondeterministic = false;
  options.checkpoint_dir.clear();
  const pipeline::StudyReport report =
      pipeline::run_study_pipeline(corpus, options);
  // Every (machine, kernel) table exists even for an empty corpus: 8
  // machines x (pair + transpose).
  EXPECT_EQ(report.results.size(), 8u * 3u);
  fs::remove_all(dir);
}

TEST(EngineStudy, ExtraKernelsDoNotPerturbThePairRows) {
  // The non-negotiable invariant behind the byte-identity acceptance check,
  // at unit scale: enrolling `merge` must leave the csr_1d/csr_2d rows of a
  // matrix study exactly (bitwise) as the default run produces them.
  CorpusOptions corpus;
  corpus.count = 1;
  corpus.scale = 0.02;
  const CorpusEntry entry = generate_corpus(corpus).at(0);

  StudyOptions defaults;
  const MatrixStudyRows base = run_matrix_study(entry, defaults);
  StudyOptions extended;
  extended.kernels = {"merge"};
  const MatrixStudyRows extra = run_matrix_study(entry, extended);

  ASSERT_GT(extra.size(), base.size());
  for (const auto& [key, row] : base) {
    const auto it = extra.find(key);
    ASSERT_TRUE(it != extra.end()) << key.first;
    ASSERT_EQ(row.orderings.size(), it->second.orderings.size());
    for (std::size_t i = 0; i < row.orderings.size(); ++i) {
      const OrderingMeasurement& a = row.orderings[i];
      const OrderingMeasurement& b = it->second.orderings[i];
      EXPECT_EQ(a.seconds, b.seconds) << key.first;
      EXPECT_EQ(a.gflops_max, b.gflops_max) << key.first;
      EXPECT_EQ(a.min_thread_nnz, b.min_thread_nnz) << key.first;
      EXPECT_EQ(a.max_thread_nnz, b.max_thread_nnz) << key.first;
      EXPECT_EQ(a.imbalance, b.imbalance) << key.first;
    }
  }
}

}  // namespace
}  // namespace ordo
