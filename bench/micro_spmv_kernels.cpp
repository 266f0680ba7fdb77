// google-benchmark microbenchmarks for the real threaded SpMV kernels on the
// host machine: serial vs the engine's registered kernels (1D, 2D,
// merge-path) across matrix families, plus the plan-preparation cost that
// Section 3.1 argues is amortisable, the engine's cached-plan lookup, and
// the cost of the ordo::obs instrumentation around (never inside) a kernel.
//
// Every kernel launch goes through a prepared engine plan built OUTSIDE the
// timed loop, so the timed region measures execution only — matching the
// paper's amortised-preprocessing methodology (the former convenience
// overloads rebuilt their partitions on every call, charging preprocessing
// to every repetition).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_report_main.hpp"
#include "corpus/generators.hpp"
#include "engine/engine.hpp"
#include "obs/obs.hpp"
#include "spmv/spmv.hpp"

namespace {

using namespace ordo;

const CsrMatrix& mesh() {
  static const CsrMatrix a = gen_mesh2d(160, 160, 9);
  return a;
}
const CsrMatrix& powerlaw() {
  static const CsrMatrix a = gen_rmat(13, 8, 0.57, 0.19, 0.19, 5);
  return a;
}

void bench_serial(benchmark::State& state, const CsrMatrix& a) {
  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.num_rows()));
  for (auto _ : state) {
    spmv_serial(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

void bench_spmv(benchmark::State& state, const CsrMatrix& a,
                const char* kernel_id) {
  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.num_rows()));
  const int threads = static_cast<int>(state.range(0));
  const auto plan = engine::prepare_plan(a, kernel_id, threads);
  for (auto _ : state) {
    engine::spmv(*plan, a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

void BM_SerialMesh(benchmark::State& s) { bench_serial(s, mesh()); }
void BM_Spmv1dMesh(benchmark::State& s) { bench_spmv(s, mesh(), "csr_1d"); }
void BM_Spmv2dMesh(benchmark::State& s) { bench_spmv(s, mesh(), "csr_2d"); }
void BM_SpmvMergeMesh(benchmark::State& s) { bench_spmv(s, mesh(), "merge"); }
void BM_Spmv1dPowerLaw(benchmark::State& s) {
  bench_spmv(s, powerlaw(), "csr_1d");
}
void BM_Spmv2dPowerLaw(benchmark::State& s) {
  bench_spmv(s, powerlaw(), "csr_2d");
}
void BM_SpmvMergePowerLaw(benchmark::State& s) {
  bench_spmv(s, powerlaw(), "merge");
}

BENCHMARK(BM_SerialMesh)->Arg(1);
BENCHMARK(BM_Spmv1dMesh)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_Spmv2dMesh)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_SpmvMergeMesh)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_Spmv1dPowerLaw)->Arg(1)->Arg(4);
BENCHMARK(BM_Spmv2dPowerLaw)->Arg(1)->Arg(4);
BENCHMARK(BM_SpmvMergePowerLaw)->Arg(1)->Arg(4);

// Uncached plan preparation (the inspector phase the plan cache amortises),
// per kernel.
void bench_prepare(benchmark::State& state, const char* kernel_id) {
  const CsrMatrix& a = powerlaw();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::prepare(a, kernel_id, threads));
  }
}
void BM_PlanPrepare2d(benchmark::State& s) { bench_prepare(s, "csr_2d"); }
void BM_PlanPrepareMerge(benchmark::State& s) { bench_prepare(s, "merge"); }
BENCHMARK(BM_PlanPrepare2d)->Arg(16)->Arg(128);
BENCHMARK(BM_PlanPrepareMerge)->Arg(16)->Arg(128);

// Cached lookup: fingerprint hash (O(rows)) + LRU hit. This is the
// steady-state cost every study evaluation pays instead of re-partitioning.
void BM_PlanCacheHit(benchmark::State& state) {
  const CsrMatrix& a = powerlaw();
  const int threads = static_cast<int>(state.range(0));
  benchmark::DoNotOptimize(engine::prepare_plan(a, "csr_2d", threads));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::prepare_plan(a, "csr_2d", threads));
  }
}
BENCHMARK(BM_PlanCacheHit)->Arg(16)->Arg(128);

// The acceptance bar for ordo::obs: a 1D launch with tracing compiled in but
// disabled (the default) must match plain BM_Spmv1dMesh within noise — the
// disabled ORDO_SCOPE is one relaxed atomic load per launch.
void BM_Spmv1dMeshScopeDisabled(benchmark::State& state) {
  const CsrMatrix& a = mesh();
  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.num_rows()));
  const int threads = static_cast<int>(state.range(0));
  const auto plan = engine::prepare_plan(a, "csr_1d", threads);
  for (auto _ : state) {
    ORDO_SCOPE("bench/spmv_1d");
    engine::spmv(*plan, a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}
BENCHMARK(BM_Spmv1dMeshScopeDisabled)->Arg(1)->Arg(4);

// Same launch with tracing *on*, for an honest upper bound on span cost at
// phase granularity (buffer cleared each iteration to bound memory).
void BM_Spmv1dMeshScopeEnabled(benchmark::State& state) {
  const CsrMatrix& a = mesh();
  std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(a.num_rows()));
  const int threads = static_cast<int>(state.range(0));
  const auto plan = engine::prepare_plan(a, "csr_1d", threads);
  obs::set_tracing_enabled(true);
  for (auto _ : state) {
    ORDO_SCOPE("bench/spmv_1d");
    engine::spmv(*plan, a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  obs::set_tracing_enabled(false);
  obs::clear_trace();
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}
BENCHMARK(BM_Spmv1dMeshScopeEnabled)->Arg(1)->Arg(4);

}  // namespace

ORDO_BENCH_REPORT_MAIN("micro_spmv_kernels")
