// Tests for the performance-model substrate: Fenwick tree, stack-distance
// engine (validated against an explicit LRU simulator), architecture table,
// and qualitative properties of the SpMV cost model.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>

#include "corpus/generators.hpp"
#include "perfmodel/spmv_model.hpp"
#include "reorder/reordering.hpp"
#include "sparse/csr_ops.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::grid_laplacian_2d;
using testing::random_square;

TEST(Fenwick, PointUpdatesAndRangeSums) {
  FenwickTree tree(10);
  tree.add(0, 3);
  tree.add(4, 5);
  tree.add(9, 2);
  EXPECT_EQ(tree.prefix_sum(0), 0);
  EXPECT_EQ(tree.prefix_sum(1), 3);
  EXPECT_EQ(tree.prefix_sum(5), 8);
  EXPECT_EQ(tree.prefix_sum(10), 10);
  EXPECT_EQ(tree.range_sum(1, 5), 5);
  EXPECT_EQ(tree.range_sum(5, 10), 2);
  tree.add(4, -5);
  EXPECT_EQ(tree.range_sum(0, 10), 5);
}

TEST(StackDistance, SimpleStream) {
  // Stream: a b a  -> a's second access has distance 1 (only b between).
  const std::vector<index_t> lines{0, 1, 0};
  const ReuseProfile profile = analyze_reuse(lines, 2);
  EXPECT_EQ(profile.stack_distance[0], ReuseProfile::kCold);
  EXPECT_EQ(profile.stack_distance[1], ReuseProfile::kCold);
  EXPECT_EQ(profile.stack_distance[2], 1);
  EXPECT_EQ(profile.previous_access[2], 0);
}

TEST(StackDistance, RepeatedAccessHasDistanceZero) {
  const std::vector<index_t> lines{5, 5, 5};
  const ReuseProfile profile = analyze_reuse(lines, 6);
  EXPECT_EQ(profile.stack_distance[1], 0);
  EXPECT_EQ(profile.stack_distance[2], 0);
}

class StackDistanceVsLru
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StackDistanceVsLru, MissCountsMatchExplicitSimulation) {
  const auto [capacity, num_lines] = GetParam();
  std::mt19937_64 rng(capacity * 1000 + num_lines);
  std::uniform_int_distribution<index_t> dist(0, num_lines - 1);
  std::vector<index_t> stream(4000);
  for (auto& line : stream) line = dist(rng);

  const ReuseProfile profile =
      analyze_reuse(stream, static_cast<index_t>(num_lines));
  const std::int64_t fast = count_misses(
      profile, 0, static_cast<offset_t>(stream.size()), capacity);
  const std::int64_t reference = simulate_lru_misses(stream, capacity);
  EXPECT_EQ(fast, reference);
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndUniverses, StackDistanceVsLru,
    ::testing::Combine(::testing::Values(1, 2, 8, 32, 100),
                       ::testing::Values(4, 16, 64, 300)));

TEST(StackDistance, SegmentTreatsEarlierAccessesAsCold) {
  // Stream: a b a b. Segment [2,4): both accesses have previous access
  // before the segment, so any capacity sees 2 misses.
  const std::vector<index_t> lines{0, 1, 0, 1};
  const ReuseProfile profile = analyze_reuse(lines, 2);
  EXPECT_EQ(count_misses(profile, 2, 4, 100), 2);
  EXPECT_EQ(count_misses(profile, 0, 4, 100), 2);  // only cold misses
  EXPECT_EQ(count_misses(profile, 0, 4, 1), 4);    // thrashing at capacity 1
}

TEST(Architectures, TableHasAllEightMachines) {
  const auto& machines = table2_architectures();
  ASSERT_EQ(machines.size(), 8u);
  EXPECT_EQ(machines[0].name, "Skylake");
  EXPECT_EQ(machines[5].name, "Milan B");
  EXPECT_EQ(machines[5].cores, 128);
  EXPECT_EQ(machines[3].sockets, 1);  // Rome is the single-socket part
  EXPECT_EQ(architecture_by_name("TX2").isa, "ARMv8.1");
  EXPECT_THROW(architecture_by_name("M1"), invalid_argument_error);
}

TEST(Architectures, DistinctThreadCountsMatchPaper) {
  EXPECT_EQ(distinct_thread_counts(), (std::vector<int>{16, 32, 48, 64, 72, 128}));
}

TEST(SpmvModel, EmptyMatrixGivesZero) {
  const CsrMatrix a(0, 0, {0}, {}, {});
  const SpmvEstimate estimate =
      estimate_spmv(a, SpmvKernel::k1D, architecture_by_name("Rome"));
  EXPECT_EQ(estimate.seconds, 0.0);
}

TEST(SpmvModel, ImbalanceMatchesKernelAccounting) {
  const CsrMatrix a = random_square(3000, 8.0, 3);
  const Architecture& arch = architecture_by_name("Rome");
  const SpmvEstimate e1 = estimate_spmv(a, SpmvKernel::k1D, arch);
  const SpmvEstimate e2 = estimate_spmv(a, SpmvKernel::k2D, arch);
  // 2D is nonzero-balanced by construction.
  EXPECT_NEAR(e2.imbalance, 1.0, 0.01);
  EXPECT_GE(e1.imbalance, 1.0);
}

TEST(SpmvModel, SkewedMatrixSlowerUnder1dThan2d) {
  // All nonzeros in the first rows: 1D gives the whole load to thread 0.
  const index_t n = 4096;
  CooMatrix coo(n, n);
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<index_t> dist(0, n - 1);
  for (index_t i = 0; i < n / 16; ++i) {
    for (int k = 0; k < 64; ++k) coo.add(i, dist(rng), 1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const Architecture& arch = architecture_by_name("Milan B");
  const SpmvEstimate e1 = estimate_spmv(a, SpmvKernel::k1D, arch);
  const SpmvEstimate e2 = estimate_spmv(a, SpmvKernel::k2D, arch);
  EXPECT_GT(e1.imbalance, 4.0);
  EXPECT_LT(e2.seconds, e1.seconds);
}

TEST(SpmvModel, LocalityBeatsRandomPermutation) {
  // A banded matrix has excellent x reuse; randomly permuting it destroys
  // the locality, so the model must predict a slowdown.
  const CsrMatrix a = grid_laplacian_2d(128, 128);
  const CsrMatrix shuffled =
      permute_symmetric(a, random_permutation(a.num_rows(), 17));
  const Architecture& arch = architecture_by_name("Ice Lake");
  const SpmvEstimate good = estimate_spmv(a, SpmvKernel::k1D, arch);
  const SpmvEstimate bad = estimate_spmv(shuffled, SpmvKernel::k1D, arch);
  EXPECT_LT(good.seconds, bad.seconds);
  EXPECT_LT(good.x_dram_misses, bad.x_dram_misses);
}

TEST(SpmvModel, SharedProfileMatchesOneShot) {
  const CsrMatrix a = random_square(500, 6.0, 5);
  const SpmvModel model(a);
  for (const Architecture& arch : table2_architectures()) {
    for (SpmvKernel kernel : {SpmvKernel::k1D, SpmvKernel::k2D}) {
      const SpmvEstimate shared = model.estimate(kernel, arch);
      const SpmvEstimate oneshot = estimate_spmv(a, kernel, arch);
      EXPECT_DOUBLE_EQ(shared.seconds, oneshot.seconds)
          << arch.name << " " << spmv_kernel_name(kernel);
    }
  }
}

// SpmvModel::estimate as it was when it priced one machine per walk over
// the plan, before the group overload: the reference the group path must
// match bit for bit.
SpmvEstimate one_machine_reference(const CsrMatrix& a,
                                   const engine::Plan& plan,
                                   const Architecture& arch) {
  constexpr int kLineBytes = 64;
  constexpr int kDoublesPerLine =
      kLineBytes / static_cast<int>(sizeof(value_t));
  const ModelOptions options;
  const auto scaled_capacity_lines = [](double bytes, double scale) {
    return std::max<index_t>(2,
                             static_cast<index_t>(bytes / scale / kLineBytes));
  };
  const auto col_idx = a.col_idx();
  std::vector<index_t> lines(col_idx.size());
  for (std::size_t k = 0; k < col_idx.size(); ++k) {
    lines[k] = col_idx[k] / kDoublesPerLine;
  }
  const index_t num_lines =
      a.num_cols() > 0 ? (a.num_cols() - 1) / kDoublesPerLine + 1 : 1;
  const ReuseProfile profile = analyze_reuse(lines, num_lines);
  std::vector<unsigned char> row_length_changed(
      static_cast<std::size_t>(a.num_rows()), 0);
  for (index_t i = 1; i < a.num_rows(); ++i) {
    row_length_changed[static_cast<std::size_t>(i)] =
        a.row_nonzeros(i) != a.row_nonzeros(i - 1) ? 1 : 0;
  }

  const int threads = plan.partition.threads();
  SpmvEstimate estimate;
  const offset_t nnz = a.num_nonzeros();
  if (nnz == 0 || a.num_rows() == 0 || threads <= 0) return estimate;
  const double scale = options.cache_scale;
  const index_t l1_lines =
      scaled_capacity_lines(arch.l1d_kib_per_core * 1024.0, scale);
  const index_t l2_lines =
      l1_lines + scaled_capacity_lines(arch.l2_kib_per_core * 1024.0, scale);
  const index_t llc_lines =
      l2_lines + scaled_capacity_lines(arch.l3_mib_per_socket * 1048576.0 *
                                           arch.sockets / threads,
                                       scale);
  const auto row_ptr = a.row_ptr();
  const std::vector<offset_t>& nnz_begin = plan.partition.nnz_begin;
  const std::vector<index_t>& row_begin = plan.partition.row_begin;
  const bool full_row_span =
      plan.partition.assignment != engine::RowAssignment::kNnzSplit;
  const double bw_per_thread =
      std::min(arch.bandwidth_gbs * 1e9 / threads,
               arch.per_core_bandwidth_gbs * 1e9);
  const double hz = arch.freq_ghz * 1e9;

  double max_thread_seconds = 0.0;
  estimate.min_thread_nnz = nnz;
  for (int t = 0; t < threads; ++t) {
    const offset_t k0 = nnz_begin[static_cast<std::size_t>(t)];
    const offset_t k1 = nnz_begin[static_cast<std::size_t>(t) + 1];
    const offset_t thread_nnz = k1 - k0;
    estimate.min_thread_nnz = std::min(estimate.min_thread_nnz, thread_nnz);
    estimate.max_thread_nnz = std::max(estimate.max_thread_nnz, thread_nnz);
    if (thread_nnz == 0) continue;
    std::int64_t miss_l1 = 0, miss_l2 = 0, miss_llc = 0;
    for (offset_t k = k0; k < k1; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      const bool cold = profile.previous_access[i] < k0;
      const index_t sd = profile.stack_distance[i];
      if (cold || sd >= l1_lines) {
        ++miss_l1;
        if (cold || sd >= l2_lines) {
          ++miss_l2;
          if (cold || sd >= llc_lines) ++miss_llc;
        }
      }
    }
    const index_t r0 = row_begin[static_cast<std::size_t>(t)];
    index_t r1;
    if (full_row_span) {
      r1 = row_begin[static_cast<std::size_t>(t) + 1];
    } else {
      const auto last =
          std::upper_bound(row_ptr.begin(), row_ptr.end(), k1 - 1);
      r1 = static_cast<index_t>(std::distance(row_ptr.begin(), last) - 1) + 1;
    }
    const index_t thread_rows = std::max<index_t>(1, r1 - r0);
    std::int64_t branch_changes = 0;
    for (index_t i = std::max<index_t>(r0, 1); i < r1; ++i) {
      branch_changes += row_length_changed[static_cast<std::size_t>(i)];
    }
    const double compute_cycles =
        static_cast<double>(thread_nnz) * arch.cycles_per_nonzero +
        static_cast<double>(thread_rows) * arch.row_overhead_cycles +
        static_cast<double>(branch_changes) * arch.branch_miss_cycles;
    const double latency_cycles =
        static_cast<double>(miss_l1 - miss_l2) * arch.l2_hit_cycles +
        static_cast<double>(miss_l2 - miss_llc) * arch.l3_hit_cycles +
        static_cast<double>(miss_llc) * arch.dram_latency_cycles /
            arch.memory_level_parallelism;
    const double seconds_compute = (compute_cycles + latency_cycles) / hz;
    const std::int64_t bytes =
        static_cast<std::int64_t>(thread_nnz) *
            (sizeof(index_t) + sizeof(value_t)) +
        static_cast<std::int64_t>(thread_rows) * 2 *
            static_cast<std::int64_t>(sizeof(value_t)) +
        miss_llc * kLineBytes;
    const double seconds_memory = static_cast<double>(bytes) / bw_per_thread;
    max_thread_seconds =
        std::max(max_thread_seconds, std::max(seconds_compute, seconds_memory));
    estimate.dram_bytes += bytes;
    estimate.x_dram_misses += miss_llc;
  }
  estimate.mean_thread_nnz = static_cast<double>(nnz) / threads;
  estimate.imbalance =
      static_cast<double>(estimate.max_thread_nnz) / estimate.mean_thread_nnz;
  estimate.seconds =
      max_thread_seconds + options.sync_overhead_us * 1e-6 *
                               (1.0 + static_cast<double>(threads) / 256.0);
  estimate.gflops = 2.0 * static_cast<double>(nnz) / estimate.seconds / 1e9;
  return estimate;
}

void expect_bitwise_equal(const SpmvEstimate& got, const SpmvEstimate& want,
                          const std::string& where) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.seconds), bits(want.seconds)) << where;
  EXPECT_EQ(bits(got.gflops), bits(want.gflops)) << where;
  EXPECT_EQ(bits(got.imbalance), bits(want.imbalance)) << where;
  EXPECT_EQ(bits(got.mean_thread_nnz), bits(want.mean_thread_nnz)) << where;
  EXPECT_EQ(got.min_thread_nnz, want.min_thread_nnz) << where;
  EXPECT_EQ(got.max_thread_nnz, want.max_thread_nnz) << where;
  EXPECT_EQ(got.dram_bytes, want.dram_bytes) << where;
  EXPECT_EQ(got.x_dram_misses, want.x_dram_misses) << where;
}

TEST(SpmvModel, CoreCountGroupsMatchOneMachineReferenceBitwise) {
  // Every fifth row empty, and the last rows too.
  CooMatrix sparse_rows(900, 900);
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<index_t> col(0, 899);
  for (index_t i = 0; i < 880; ++i) {
    if (i % 5 == 0) continue;
    for (int k = 0; k < 1 + i % 7; ++k) sparse_rows.add(i, col(rng), 1.0);
  }
  const std::map<std::string, CsrMatrix> matrices = {
      {"mesh", permute_symmetric(gen_mesh2d(70, 70, 9),
                                 random_permutation(70 * 70, 3))},
      {"rmat", gen_rmat(10, 8, 0.57, 0.19, 0.19, 5)},
      {"empty rows", CsrMatrix::from_coo(sparse_rows)},
      {"more threads than rows", random_square(40, 3.0, 9)},
  };
  // The study's groups: the Table 2 machines that share a core count.
  std::map<int, std::vector<const Architecture*>> groups;
  for (const Architecture& arch : table2_architectures()) {
    groups[arch.cores].push_back(&arch);
  }
  EXPECT_EQ(groups.size(), 6u);
  for (const auto& [name, a] : matrices) {
    const SpmvModel model(a);
    for (const SpmvKernel& kernel : {SpmvKernel::k1D, SpmvKernel::k2D}) {
      for (const auto& [cores, group] : groups) {
        const auto plan = engine::prepare_plan(a, kernel, cores);
        const std::vector<SpmvEstimate> priced = model.estimate(*plan, group);
        ASSERT_EQ(priced.size(), group.size());
        for (std::size_t m = 0; m < group.size(); ++m) {
          const std::string where = name + " " + spmv_kernel_name(kernel) +
                                    " " + group[m]->name;
          expect_bitwise_equal(priced[m],
                               one_machine_reference(a, *plan, *group[m]),
                               where);
          expect_bitwise_equal(model.estimate(kernel, *group[m]), priced[m],
                               where);
        }
      }
    }
  }
}

TEST(SpmvModel, GflopsConsistentWithSeconds) {
  const CsrMatrix a = random_square(1000, 10.0, 2);
  const SpmvEstimate e =
      estimate_spmv(a, SpmvKernel::k1D, architecture_by_name("Skylake"));
  EXPECT_NEAR(e.gflops,
              2.0 * static_cast<double>(a.num_nonzeros()) / e.seconds / 1e9,
              1e-9);
}

TEST(ModelOptions, EnvOverrides) {
  setenv("ORDO_CACHE_SCALE", "128", 1);
  setenv("ORDO_SYNC_US", "2.5", 1);
  const ModelOptions options = model_options_from_env();
  EXPECT_DOUBLE_EQ(options.cache_scale, 128.0);
  EXPECT_DOUBLE_EQ(options.sync_overhead_us, 2.5);
  unsetenv("ORDO_CACHE_SCALE");
  unsetenv("ORDO_SYNC_US");
}

}  // namespace
}  // namespace ordo
