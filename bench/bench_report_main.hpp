// Custom google-benchmark main for the micro_* harnesses: identical console
// output, but every run is also mirrored into the process bench report so
// the harness writes a schema-versioned BENCH_<name>.json at exit — the file
// tools/ordo_bench_diff.py compares across builds.
//
// Defining our own main overrides benchmark::benchmark_main at link time
// (the linker only pulls the library's main when it is still unresolved),
// so a micro bench opts in with one macro:
//
//   ORDO_BENCH_REPORT_MAIN("micro_spmv_kernels");
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace ordo::bench {

/// ConsoleReporter that also records every per-iteration run (aggregates
/// like mean/median rows are skipped — the report computes its own median
/// over the recorded reps) into obs::bench_report(). The repetitions of one
/// benchmark (--benchmark_repetitions) arrive in one call and become one
/// case with a rep each, carrying the counters of the last.
class ReportingConsoleReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    std::vector<obs::BenchCase> cases;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (cases.empty() || cases.back().name != run.benchmark_name()) {
        cases.emplace_back().name = run.benchmark_name();
      }
      obs::BenchCase& bench_case = cases.back();
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      bench_case.rep_seconds.push_back(run.real_accumulated_time / iterations);
      bench_case.counters.clear();
      for (const auto& [name, counter] : run.counters) {
        bench_case.counters.emplace_back(name,
                                         static_cast<double>(counter));
      }
    }
    for (obs::BenchCase& bench_case : cases) {
      obs::bench_report().add_case(std::move(bench_case));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Initializes observability (naming the BENCH_<name>.json output), then
/// runs the registered benchmarks through the mirroring reporter.
inline int run_benchmarks_with_report(int argc, char** argv,
                                      const std::string& name) {
  init_observability(name);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportingConsoleReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace ordo::bench

#define ORDO_BENCH_REPORT_MAIN(name)                                      \
  int main(int argc, char** argv) {                                       \
    return ::ordo::bench::run_benchmarks_with_report(argc, argv, (name)); \
  }
