#include "obs/hw/membw.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "pipeline/fork_join.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::hw {
namespace {

// ORDO_PEAK_GBPS as read_peak_override_from_env parsed it; 0 = unset.
std::atomic<double> g_peak_override{0.0};

// One fork/join pass of `fn(begin, end)` over [0, n) split into contiguous
// per-thread slices, one pool task each (pipeline::run_tasks, which runs a
// one-thread pass inline).
template <typename Fn>
void parallel_slices(std::size_t n, int threads, Fn fn) {
  const auto slices = static_cast<std::size_t>(threads);
  const std::size_t chunk = (n + slices - 1) / slices;
  pipeline::run_tasks(slices, threads, [&](std::size_t t) {
    const std::size_t begin = std::min(n, t * chunk);
    fn(begin, std::min(n, begin + chunk));
  });
}

template <typename Fn>
MembwKernelResult run_kernel(const char* name, double bytes, int reps,
                             Fn pass) {
  MembwKernelResult result;
  result.name = name;
  result.bytes = bytes;
  pass();  // warm up (faults pages on first touch of the destination)
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    pass();
    const double seconds = watch.seconds();
    if (r == 0 || seconds < best) best = seconds;
  }
  result.seconds = best;
  result.gbps = best > 0.0 ? bytes / best / 1e9 : 0.0;
  return result;
}

}  // namespace

MembwOptions membw_options_from_env() {
  MembwOptions options;
  if (const char* mib = std::getenv("ORDO_MEMBW_MIB")) {
    // Capped so the shift to bytes cannot wrap.
    options.array_bytes =
        parse_whole_number<std::size_t>(
            mib, "ORDO_MEMBW_MIB", 1,
            std::numeric_limits<std::size_t>::max() >> 20)
        << 20;
  }
  if (const char* reps = std::getenv("ORDO_MEMBW_REPS")) {
    options.reps = parse_whole_number<int>(reps, "ORDO_MEMBW_REPS", 1);
  }
  if (const char* threads = std::getenv("ORDO_MEMBW_THREADS")) {
    options.threads = parse_whole_number<int>(threads, "ORDO_MEMBW_THREADS",
                                              0, affinity_cpu_count());
  }
  return options;
}

MembwResult measure_membw(const MembwOptions& options) {
  ORDO_SCOPE("hw/membw");
  MembwResult result;
  result.threads =
      options.threads > 0 ? options.threads : affinity_cpu_count();
  result.array_bytes = std::max<std::size_t>(options.array_bytes, 1 << 16);
  const std::size_t n = result.array_bytes / sizeof(double);
  const double array_bytes = static_cast<double>(n * sizeof(double));
  const int reps = std::max(1, options.reps);
  const int threads = result.threads;

  std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 0.0);
  const double scalar = 3.0;
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();

  result.kernels.push_back(run_kernel("copy", 2.0 * array_bytes, reps, [&] {
    parallel_slices(n, threads, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pc[i] = pa[i];
    });
  }));
  result.kernels.push_back(run_kernel("scale", 2.0 * array_bytes, reps, [&] {
    parallel_slices(n, threads, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pb[i] = scalar * pc[i];
    });
  }));
  result.kernels.push_back(run_kernel("add", 3.0 * array_bytes, reps, [&] {
    parallel_slices(n, threads, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pc[i] = pa[i] + pb[i];
    });
  }));
  result.kernels.push_back(run_kernel("triad", 3.0 * array_bytes, reps, [&] {
    parallel_slices(n, threads, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
  }));

  for (const MembwKernelResult& k : result.kernels) {
    result.peak_gbps = std::max(result.peak_gbps, k.gbps);
  }
  gauge("hw.peak_gbps").set(result.peak_gbps);
  return result;
}

void read_peak_override_from_env() {
  const char* peak = std::getenv("ORDO_PEAK_GBPS");
  // Relaxed: set at start-up, before the heartbeat thread reads it, and a
  // lone double with no other state to publish.
  g_peak_override.store(
      peak != nullptr ? parse_real_number(peak, "ORDO_PEAK_GBPS", 0.0) : 0.0,
      std::memory_order_relaxed);
}

double measured_peak_gbps() {
  // Relaxed: see read_peak_override_from_env. 0 keeps the measured value,
  // as if the variable were unset.
  const double override_gbps = g_peak_override.load(std::memory_order_relaxed);
  if (override_gbps > 0.0) return override_gbps;
  // Looked up only when present, so a process that never measured shows no
  // zero hw.peak_gbps gauge.
  return has_metric("hw.peak_gbps") ? gauge("hw.peak_gbps").value() : 0.0;
}

}  // namespace ordo::obs::hw
