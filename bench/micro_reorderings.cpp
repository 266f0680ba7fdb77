// google-benchmark microbenchmarks for the reordering algorithms themselves
// (serial, as in the study) on two structural extremes: a 2D mesh and a
// power-law graph. BM_RcmManyComponents guards RCM's cost against growing
// with the number of connected components, and BM_GpRmatHubs guards GP's FM
// refinement against re-popping every balance-blocked vertex after each move.
// BM_ApplyOrdering times applying RCM and Gray to a shuffled mesh of 2M
// nonzeros, whose row loops run on idle cores (DESIGN §21).
// BM_RcmWindowedMesh times RCM on a mesh of the same size shuffled within
// windows, as ordo_bench's spmv_dram input is: its George–Liu sweeps stream
// per-vertex arrays larger than the L2 (DESIGN §23).
// BM_SmallBisections times graph and hypergraph bisections of 96 vertices
// or fewer with reused scratch, the bulk of the nodes of a recursive
// bisection to 128 parts, whose cost is per call (DESIGN §24).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "bench_report_main.hpp"
#include "corpus/generators.hpp"
#include "partition/graph_partitioner.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "reorder/reordering.hpp"

namespace {

using namespace ordo;

const CsrMatrix& mesh() {
  static const CsrMatrix a = gen_mesh2d(120, 120, 5);
  return a;
}
const CsrMatrix& powerlaw() {
  static const CsrMatrix a = gen_rmat(12, 8, 0.57, 0.19, 0.19, 5);
  return a;
}

// The R-MAT graph of ordo_bench's spmv_cache workload.
const CsrMatrix& rmat_hubs() {
  static const CsrMatrix a = gen_rmat(14, 8, 0.57, 0.19, 0.19, 2023);
  return a;
}

// 80k rows with a full diagonal and 20k random off-diagonal pairs: about
// 60k connected components, most of them single vertices.
const CsrMatrix& many_components() {
  static const CsrMatrix a = [] {
    const index_t n = 80000;
    CooMatrix coo(n, n);
    for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<index_t> vertex(0, n - 1);
    for (int e = 0; e < 20000; ++e) {
      const index_t i = vertex(rng), j = vertex(rng);
      if (i != j) coo.add_symmetric(i, j, -1.0);
    }
    return CsrMatrix::from_coo(coo);
  }();
  return a;
}

void bench_ordering(benchmark::State& state, const CsrMatrix& a,
                    OrderingKind kind) {
  ReorderOptions options;
  options.gp_parts = 64;
  options.hp_parts = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_ordering(a, kind, options));
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

void BM_RcmMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kRcm); }
void BM_AmdMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kAmd); }
void BM_NdMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kNd); }
void BM_GpMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kGp); }
void BM_HpMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kHp); }
void BM_GrayMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kGray); }
void BM_RcmPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kRcm); }
void BM_AmdPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kAmd); }
void BM_GpPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kGp); }
void BM_GrayPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kGray); }
void BM_RcmManyComponents(benchmark::State& s) {
  bench_ordering(s, many_components(), OrderingKind::kRcm);
}

// GP at 4 parts; the argument is the partitioner seed. Seeds 1 and 3 took
// 0.36 s and 1.45 s while blocked vertices were re-popped after each move.
void BM_GpRmatHubs(benchmark::State& state) {
  const CsrMatrix& a = rmat_hubs();
  ReorderOptions options;
  options.gp_parts = 4;
  options.seed = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_ordering(a, OrderingKind::kGp, options));
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

// A 480x480 9-point mesh (2.07M nonzeros) in random order, so both
// orderings move every row.
const CsrMatrix& shuffled_big_mesh() {
  static const CsrMatrix a = [] {
    const CsrMatrix mesh = gen_mesh2d(480, 480, 9);
    return permute_symmetric(mesh, random_permutation(mesh.num_rows(), 3));
  }();
  return a;
}

// The same mesh shuffled within windows of 2^16 rows, the relabelling of
// ordo_bench's spmv_dram input.
const CsrMatrix& windowed_big_mesh() {
  static const CsrMatrix a = [] {
    const CsrMatrix mesh = gen_mesh2d(480, 480, 9);
    const index_t n = mesh.num_rows();
    constexpr index_t kWindow = 1 << 16;
    Permutation perm = identity_permutation(n);
    std::mt19937_64 rng(3);
    for (index_t begin = 0; begin < n; begin += kWindow) {
      std::shuffle(perm.begin() + begin,
                   perm.begin() + std::min(begin + kWindow, n), rng);
    }
    return permute_symmetric(mesh, perm);
  }();
  return a;
}

void BM_RcmWindowedMesh(benchmark::State& s) {
  bench_ordering(s, windowed_big_mesh(), OrderingKind::kRcm);
}

// 64 meshes and R-MAT graphs of 16 to 96 vertices, with the column-net
// hypergraphs of their matrices.
struct SmallInputs {
  std::vector<Graph> graphs;
  std::vector<Hypergraph> hypergraphs;
};
const SmallInputs& small_inputs() {
  static const SmallInputs inputs = [] {
    SmallInputs made;
    for (index_t k = 0; k < 64; ++k) {
      const CsrMatrix a =
          k % 2 == 0
              ? gen_mesh2d(4 + k % 5, 4 + k % 8, 5)
              : gen_rmat(4 + k % 3, 6, 0.57, 0.19, 0.19,
                         static_cast<std::uint64_t>(k));
      made.graphs.push_back(Graph::from_matrix(a));
      made.hypergraphs.push_back(Hypergraph::column_net(a));
    }
    return made;
  }();
  return inputs;
}

void BM_SmallBisections(benchmark::State& state) {
  const SmallInputs& inputs = small_inputs();
  GraphBisector graph_bisector;
  HypergraphBisector hypergraph_bisector;
  PartitionOptions options;
  for (auto _ : state) {
    for (std::size_t k = 0; k < inputs.graphs.size(); ++k) {
      options.seed = k + 1;
      benchmark::DoNotOptimize(
          graph_bisector.bisect(inputs.graphs[k], 0.5, options).data());
      benchmark::DoNotOptimize(
          hypergraph_bisector.bisect(inputs.hypergraphs[k], 0.5, options)
              .data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(inputs.graphs.size()));
}

void BM_ApplyOrdering(benchmark::State& state, OrderingKind kind) {
  const CsrMatrix& a = shuffled_big_mesh();
  const Ordering ordering = compute_ordering(a, kind, ReorderOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_ordering(a, ordering));
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

BENCHMARK(BM_RcmMesh);
BENCHMARK(BM_AmdMesh);
BENCHMARK(BM_NdMesh);
BENCHMARK(BM_GpMesh);
BENCHMARK(BM_HpMesh);
BENCHMARK(BM_GrayMesh);
BENCHMARK(BM_RcmPowerLaw);
BENCHMARK(BM_AmdPowerLaw);
BENCHMARK(BM_GpPowerLaw);
BENCHMARK(BM_GrayPowerLaw);
BENCHMARK(BM_RcmManyComponents);
BENCHMARK(BM_GpRmatHubs)->Arg(1)->Arg(3);
BENCHMARK(BM_RcmWindowedMesh);
BENCHMARK(BM_SmallBisections);
BENCHMARK_CAPTURE(BM_ApplyOrdering, RCM, OrderingKind::kRcm);
BENCHMARK_CAPTURE(BM_ApplyOrdering, Gray, OrderingKind::kGray);

}  // namespace

ORDO_BENCH_REPORT_MAIN("micro_reorderings")
