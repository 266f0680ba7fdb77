// Section 4.2 reference point: SpMV on a tall-and-skinny dense matrix stored
// in CSR (the paper uses 96000x4000 and measures ~53 Gflop/s = 317 GB/s on
// Milan B, about 77% of peak bandwidth). The modelled run should likewise
// land at a large fraction of the machine's bandwidth, since the x vector
// fits in cache and the matrix streams from DRAM. A real (threaded) kernel run
// on the host machine is printed alongside for reference.
#include <vector>

#include "bench_common.hpp"
#include "corpus/generators.hpp"
#include "spmv/spmv.hpp"

using namespace ordo;

int main() {
  bench::init_observability("ref_dense_spmv");
  const double scale = corpus_options_from_env().scale;
  const index_t rows = static_cast<index_t>(24000 * scale);
  const index_t cols = 1000;
  const CsrMatrix a = gen_dense_tall_skinny(rows, cols);
  const ModelOptions model = model_options_from_env();

  std::printf("Dense %dx%d CSR SpMV reference (Section 4.2)\n\n",
              static_cast<int>(rows), static_cast<int>(cols));
  std::printf("%-9s %10s %10s %10s %9s\n", "machine", "Gflop/s", "GB/s",
              "peak GB/s", "fraction");
  for (const Architecture& arch : table2_architectures()) {
    const SpmvEstimate e = estimate_spmv(a, SpmvKernel::k1D, arch, model);
    const double gbs = static_cast<double>(a.storage_bytes()) / e.seconds / 1e9;
    std::printf("%-9s %10.1f %10.1f %10.1f %8.1f%%\n", arch.name.c_str(),
                e.gflops, gbs, arch.bandwidth_gbs,
                100.0 * gbs / arch.bandwidth_gbs);
  }

  // Real kernel on this host (whatever it is), for a wall-clock sanity
  // point. The plan is prepared once, outside the timed repetitions.
  std::vector<value_t> x(static_cast<std::size_t>(cols), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(rows));
  const auto plan = engine::prepare_plan(a, SpmvKernel::k1D, 1);
  const double seconds = obs::median_seconds_of_reps(
      20, [&] { engine::spmv(*plan, a, x, y); });
  std::printf("\nhost (real, 1 thread): %.2f Gflop/s, %.2f GB/s\n",
              2.0 * static_cast<double>(a.num_nonzeros()) / seconds / 1e9,
              static_cast<double>(a.storage_bytes()) / seconds / 1e9);
  std::printf(
      "\nPaper: ~53 Gflop/s / 317 GB/s on Milan B = 77%% of peak bandwidth.\n"
      "Shape: the modelled dense runs should reach a high fraction of peak.\n");
  return 0;
}
