// Machine-readable bench reporting: every bench main writes one
// schema-versioned `BENCH_<name>.json` so performance becomes a tracked
// trajectory instead of scrollback. The file carries a host/CPU/compiler
// fingerprint (two reports are only comparable on the same fingerprint),
// per-case repetition samples with median + IQR (the noise band
// tools/ordo_bench_diff.py thresholds against), and hardware-counter
// readings when an ORDO_HW session is live.
//
// Schema (version 1):
//   {"schema_version":1,"name":"micro_membw",
//    "host":{"os":...,"cpu":...,"logical_cpus":N,"compiler":...,
//            "build":"Release","hw_backend":"perf|perf-software|null"},
//    "cases":[{"name":...,"reps":[seconds...],"median_seconds":...,
//              "iqr_seconds":...,"counters":{"ipc":...,...}}]}
//
// The process-wide report is written by obs::finalize() (and therefore by
// the atexit flush), so a bench that exits early still leaves its file.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ordo::obs {

inline constexpr int kBenchReportSchemaVersion = 1;

struct BenchCase {
  std::string name;
  std::vector<double> rep_seconds;  ///< raw repetition wall times
  double median_seconds = 0.0;      ///< derived from reps by add_case
  double iqr_seconds = 0.0;         ///< q3 − q1 of reps (0 for < 4 reps)
  /// Counter readings / derived metrics for this case ("cycles", "ipc",
  /// "gbps", ...); empty when no hw session was live.
  std::vector<std::pair<std::string, double>> counters;
};

/// Where two bench reports are comparable: same CPU, compiler and build
/// type. Queried once per process (reads /proc/cpuinfo and uname).
struct HostInfo {
  std::string os;
  std::string cpu;
  int logical_cpus = 0;
  std::string compiler;
  std::string build_type;
  std::string hw_backend;  ///< obs::hw::backend_name() at report time
};
HostInfo host_info();

/// CPUs this process may run on: the count in its affinity mask, so
/// `taskset` and cgroup cpusets shrink it (hardware_concurrency() counts
/// every online CPU regardless). At least 1. The one definition of "cores"
/// for `--jobs 0`, the fork budget (pipeline/fork_join.hpp) and the
/// thread counts of the host probes; HostInfo::logical_cpus stays the
/// machine's fingerprint.
int affinity_cpu_count();

/// Medians/IQR of a sample vector (exposed for the report's own tests).
double median_of(std::vector<double> samples);
double iqr_of(std::vector<double> samples);

/// The process-wide bench report. Thread-safe.
class BenchReport {
 public:
  /// Adds a case; fills median/iqr from rep_seconds when unset.
  void add_case(BenchCase bench_case);
  bool empty() const;
  std::string to_json() const;
  void write_json_file(const std::string& path) const;

 private:
  friend BenchReport& bench_report();
  BenchReport() = default;
};

BenchReport& bench_report();

/// Names the process's report. First call wins; also defaults the output
/// path to `BENCH_<name>.json` when no path was set. Benches pass their
/// harness name; library code never calls this.
void set_bench_report_name(const std::string& name);
std::string bench_report_name();

/// Output path for the report JSON; empty disables writing.
std::string bench_report_output_path();
void set_bench_report_output_path(const std::string& path);

/// Writes the report to the configured path (no-op when unset or when no
/// case was recorded). Appends a `process_total_seconds` case with the
/// session counter totals when a hw session is live. Called by
/// obs::finalize(); safe to call repeatedly.
void write_bench_report();

/// Parsed-back view of a BENCH_*.json file, for schema round-trip tests
/// and future in-process comparisons. Throws invalid_argument_error on a
/// malformed file or schema mismatch.
struct ParsedBenchReport {
  int schema_version = 0;
  std::string name;
  HostInfo host;
  std::vector<BenchCase> cases;
};
ParsedBenchReport parse_bench_report_file(const std::string& path);

}  // namespace ordo::obs
