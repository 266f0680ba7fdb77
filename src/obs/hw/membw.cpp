// ordo-lint: allow-file(thread)
// std::thread is used directly here (not the pipeline scheduler): obs sits
// below src/pipeline in the layering, and a bandwidth probe needs plain
// fork/join over array slices, not work stealing, deadlines or journaling.
#include "obs/hw/membw.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::hw {
namespace {

double g_measured_peak_gbps = 0.0;

// One fork/join pass of `fn(begin, end)` over [0, n) split into contiguous
// per-thread slices. Thread spawn cost is amortised by the array size (a
// 64 MiB pass is tens of milliseconds; a thread spawn ~0.1 ms).
template <typename Fn>
void parallel_slices(std::size_t n, int threads, Fn fn) {
  if (threads <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const std::size_t chunk = (n + static_cast<std::size_t>(threads) - 1) /
                            static_cast<std::size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::size_t begin = std::min(n, static_cast<std::size_t>(t) * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    workers.emplace_back([=] { fn(begin, end); });
  }
  for (std::thread& w : workers) w.join();
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
    options.threads = parse_whole_number<int>(threads, "ORDO_MEMBW_THREADS", 0);
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
  g_measured_peak_gbps = result.peak_gbps;
  gauge("hw.peak_gbps").set(result.peak_gbps);
  return result;
}

double measured_peak_gbps() {
  if (const char* peak = std::getenv("ORDO_PEAK_GBPS")) {
    // 0 keeps the measured value, as if the variable were unset.
    const double value = parse_real_number(peak, "ORDO_PEAK_GBPS", 0.0);
    if (value > 0.0) return value;
  }
  return g_measured_peak_gbps;
}

}  // namespace ordo::obs::hw
