// STREAM-like host memory-bandwidth harness (obs/hw/membw.hpp): measures the
// sustainable copy/scale/add/triad rates, prints them, and writes
// BENCH_micro_membw.json. The reported peak is the denominator of the
// study's "achieved GB/s vs peak" column — export it as ORDO_PEAK_GBPS to
// reuse across runs without re-measuring.
//
// Knobs: ORDO_MEMBW_MIB (array MiB, default 64), ORDO_MEMBW_REPS (default
// 5), ORDO_MEMBW_THREADS (default and upper bound: the CPUs in the
// affinity mask).
#include <cstdio>

#include "bench_common.hpp"
#include "obs/hw/membw.hpp"

int main() {
  using namespace ordo;
  bench::init_observability("micro_membw");

  const obs::hw::MembwOptions options = obs::hw::membw_options_from_env();
  const std::string backend =
      obs::hw::enabled() ? obs::hw::backend_name() : "hw counters off";
  std::printf("membw: %zu MiB per array, %d reps, %s\n",
              options.array_bytes >> 20, options.reps, backend.c_str());

  // Each kernel runs once per rep inside measure_membw (best rep wins);
  // wrap the whole sweep in a counter scope so the report carries the
  // session's view of the traffic alongside the wall-clock rates.
  obs::hw::CounterScope scope("membw.sweep");
  const obs::hw::MembwResult result = obs::hw::measure_membw(options);
  const obs::hw::CounterSet& counters = scope.stop();

  for (const obs::hw::MembwKernelResult& kernel : result.kernels) {
    std::printf("  %-6s %8.2f GB/s  (%.1f MiB moved in %.4f s)\n",
                kernel.name.c_str(), kernel.gbps,
                kernel.bytes / (1024.0 * 1024.0), kernel.seconds);
    obs::BenchCase bench_case;
    bench_case.name = "membw_" + kernel.name;
    bench_case.rep_seconds.push_back(kernel.seconds);
    bench_case.counters.emplace_back("gbps", kernel.gbps);
    bench_case.counters.emplace_back("bytes", kernel.bytes);
    obs::bench_report().add_case(std::move(bench_case));
  }
  std::printf("membw: peak %.2f GB/s over %d threads\n", result.peak_gbps,
              result.threads);

  obs::BenchCase peak_case;
  peak_case.name = "membw_peak";
  peak_case.rep_seconds.push_back(0.0);
  peak_case.counters.emplace_back("peak_gbps", result.peak_gbps);
  peak_case.counters.emplace_back("threads",
                                  static_cast<double>(result.threads));
  if (counters.available) {
    for (const obs::hw::Reading& reading : counters.readings) {
      peak_case.counters.emplace_back(obs::hw::counter_name(reading.id),
                                      reading.value);
    }
  }
  obs::bench_report().add_case(std::move(peak_case));
  return 0;
}
