// google-benchmark microbenchmarks for the performance-model machinery: the
// LRU stack-distance engine and a full eight-machine model evaluation, as
// the study prices one matrix.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "bench_report_main.hpp"
#include "corpus/generators.hpp"
#include "perfmodel/spmv_model.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/permutation.hpp"

namespace {

using namespace ordo;

void BM_StackDistanceRandomStream(benchmark::State& state) {
  const index_t num_lines = static_cast<index_t>(state.range(0));
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<index_t> dist(0, num_lines - 1);
  std::vector<index_t> stream(1 << 16);
  for (auto& line : stream) line = dist(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_reuse(stream, num_lines));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_StackDistanceRandomStream)->Arg(64)->Arg(4096)->Arg(65536);

void BM_StackDistanceMatrixStream(benchmark::State& state) {
  const CsrMatrix a = gen_mesh2d(128, 128, 9);
  std::vector<index_t> lines(a.col_idx().size());
  for (std::size_t k = 0; k < lines.size(); ++k) {
    lines[k] = a.col_idx()[k] / 8;
  }
  const index_t num_lines = a.num_cols() / 8 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_reuse(lines, num_lines));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_StackDistanceMatrixStream);

// One matrix's model phase as the study runs it: the reuse profile, then one
// pass per (kernel, core count) that prices every Table 2 machine with that
// core count. Plans are prepared once, outside the timed loop.
void run_full_model_evaluation(benchmark::State& state, const CsrMatrix& a) {
  std::map<int, std::vector<const Architecture*>> groups;
  for (const Architecture& arch : table2_architectures()) {
    groups[arch.cores].push_back(&arch);
  }
  std::vector<std::pair<std::shared_ptr<const engine::Plan>,
                        const std::vector<const Architecture*>*>>
      passes;
  for (const SpmvKernel& kernel : {SpmvKernel::k1D, SpmvKernel::k2D}) {
    for (const auto& [cores, group] : groups) {
      passes.emplace_back(engine::prepare_plan(a, kernel, cores), &group);
    }
  }
  for (auto _ : state) {
    const SpmvModel model(a);
    double total = 0.0;
    for (const auto& [plan, group] : passes) {
      for (const SpmvEstimate& estimate : model.estimate(*plan, *group)) {
        total += estimate.seconds;
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

void BM_FullModelEvaluation(benchmark::State& state) {
  run_full_model_evaluation(state, gen_mesh3d(24, 24, 24, 7));
}
BENCHMARK(BM_FullModelEvaluation);

// A 9-point mesh of 1.1M nonzeros under a random symmetric permutation: the
// long reuse distances of an unordered matrix, at a size where the profile
// no longer fits in cache.
void BM_FullModelEvaluationShuffledMesh(benchmark::State& state) {
  const CsrMatrix mesh = gen_mesh2d(350, 350, 9);
  run_full_model_evaluation(
      state, permute_symmetric(mesh, random_permutation(mesh.num_rows(), 7)));
}
BENCHMARK(BM_FullModelEvaluationShuffledMesh)->Unit(benchmark::kMillisecond);

void BM_CountMissesSegmented(benchmark::State& state) {
  const CsrMatrix a = gen_rmat(12, 8, 0.57, 0.19, 0.19, 3);
  std::vector<index_t> lines(a.col_idx().size());
  for (std::size_t k = 0; k < lines.size(); ++k) {
    lines[k] = a.col_idx()[k] / 8;
  }
  const ReuseProfile profile = analyze_reuse(lines, a.num_cols() / 8 + 1);
  const int threads = 128;
  for (auto _ : state) {
    std::int64_t total = 0;
    const offset_t nnz = static_cast<offset_t>(lines.size());
    for (int t = 0; t < threads; ++t) {
      total += count_misses(profile, nnz * t / threads,
                            nnz * (t + 1) / threads, 1024);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_CountMissesSegmented);

}  // namespace

ORDO_BENCH_REPORT_MAIN("micro_perfmodel")
