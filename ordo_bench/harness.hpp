// Shared machinery of the ordo_bench harness: command-line arguments, the
// closed-loop measurement loop, the span ledger behind --trace 1, host
// probes (thread cap, peak RSS) and metric reporting.
//
// The harness calls the library's public functions from outside and times
// them; it adds no instrumentation inside the program.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sparse/permutation.hpp"

namespace ordo_bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 2023;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken shapes and a short window: the self-check, not a measurement.
  bool smoke = false;
};

/// Worker threads for every parallel layer: min(4, CPUs in the affinity
/// mask). Pipeline jobs, OpenMP threads and kernel plans all use it.
int thread_cap();

/// Resident-set high-water mark in MB (10^6 bytes): since the last
/// reset_peak_rss() where the kernel supports resetting it, else since the
/// process started.
double peak_rss_mb();
void reset_peak_rss();

/// Median and interquartile range of a sample, with the quartiles of
/// Python's statistics.quantiles(n=4) (exclusive method) so the numbers
/// printed here match what the comparison tool computes.
double median_of(std::vector<double> samples);
double iqr_of(std::vector<double> samples);

/// Seeded permutation of [0, n) that shuffles indices only within
/// consecutive windows of `window`: the relabelling that varies an input
/// with the seed while keeping its locality, and so its cost, nearly fixed.
ordo::Permutation window_permutation(ordo::index_t n, ordo::index_t window,
                                     std::uint64_t seed);

// ---------------------------------------------------------------------------
// Measurement loop
// ---------------------------------------------------------------------------

struct RunResult;

/// Runs `rep` back to back (closed loop, one caller) until `seconds` have
/// elapsed and at least 3 reps ran, recording each rep's seconds and
/// resident high-water mark in `result`. `rep` returns the seconds it
/// wants counted, so a rep can keep its own bookkeeping and checks outside
/// the timed window.
void measure_reps(double seconds, const std::function<double()>& rep,
                  RunResult& result);

/// Runs `setup` at least 3 times, and more (up to 15) until 1 s of setups
/// ran, so short setups are not timed from a handful of noisy samples;
/// returns each run's wall seconds. The state built by the last call is
/// what the workload measures.
std::vector<double> repeat_setup(const std::function<void()>& setup);

// ---------------------------------------------------------------------------
// Span ledger (--trace 1)
// ---------------------------------------------------------------------------
//
// --trace 1 turns on the library's own tracing (obs::Span): the program's
// spans ("reorder/GP", "partition/graph_kway", "study/matrix/<name>", ...)
// and the few the harness opens around its calls, all named "bench/...".
// The ledger reads them back with obs::collect_trace(). One input matrix's
// work runs inside a matrix span: the library's "study/matrix/<name>" or
// the harness's "bench/matrix/<name>".

/// One recorded span, with the matrix it worked on (from its nearest
/// matrix-span ancestor on the same thread, or itself) and its self time:
/// its duration minus the time its direct children cover.
struct LedgerSpan {
  ordo::obs::SpanEvent event;
  std::string matrix;
  bool is_matrix = false;
  double self_seconds = 0.0;
  double seconds() const { return static_cast<double>(event.duration_us) * 1e-6; }
};

/// Every span recorded so far, in start order.
std::vector<LedgerSpan> collect_ledger();
/// The spans that started at or after `begin_us` and ended by `end_us`
/// (obs::trace_now_us() readings).
std::vector<LedgerSpan> spans_within(const std::vector<LedgerSpan>& spans,
                                     std::int64_t begin_us,
                                     std::int64_t end_us);
std::vector<LedgerSpan> spans_named(const std::vector<LedgerSpan>& spans,
                                    const std::string& name);

/// Input nonzeros over seconds, in millions, across `spans`: each span's
/// work is its matrix's nonzero count from `nnz`, and its seconds are its
/// duration, or its self time with `self`. 0 when the spans took no time.
using NnzByMatrix = std::map<std::string, double>;
double mnnz_per_second(const std::vector<LedgerSpan>& spans,
                       const NnzByMatrix& nnz, bool self = false);
/// Spans per second of their summed duration; 0 when they took no time.
double spans_per_second(const std::vector<LedgerSpan>& spans);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int n = 1;         ///< samples behind the value
  double iqr = 0.0;  ///< interquartile range of those samples
};

/// What one workload run produced: end-to-end metrics (reported with
/// --trace 0), per-layer metrics (reported with --trace 1), the per-rep
/// wall times (mirrored into the BENCH_*.json report) and the check tally.
struct RunResult {
  /// per_layer starts as every per-layer metric at 0: each workload reports
  /// the same set with --trace 1 (BENCHMARK.json lists it), and a layer the
  /// workload never calls reads 0.
  RunResult();

  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;  ///< context printed beside the metrics
  std::vector<double> rep_seconds;
  std::vector<double> rep_rss_mb;
  std::vector<double> setup_seconds;
  long long attempted = 0;
  long long failed = 0;
  /// FNV-1a digest of the result files (sweep only).
  std::uint64_t digest = 0;
  /// The traced pass's spans, for the self-time ledger (--trace 1 only).
  std::vector<LedgerSpan> pass;
  std::vector<std::string> errors;  ///< correctness failures, one line each

  bool correct() const { return errors.empty() && failed == 0; }
  void fail(const std::string& message) { errors.push_back(message); }
};

/// Adds setup_s, wall_s, matrices_per_s and peak_rss_mb from the recorded
/// setups and reps; `matrices_per_rep` is how many input matrices one rep
/// carries through the workload. peak_rss_mb is the median over reps of a
/// rep's resident high-water mark: it follows the measured work, not the
/// setup's transients or the allocator state setup left behind.
void add_end_to_end(RunResult& result, int matrices_per_rep);

/// The kernels and orderings the per-(kernel, ordering) SpMV metrics cover,
/// and the metric name "spmv.<kernel>.<ordering>.<suffix>".
inline constexpr const char* kSpmvKernels[] = {"csr_1d", "csr_2d"};
inline constexpr const char* kSpmvOrderings[] = {"Original", "RCM", "GP",
                                                 "Gray"};
std::string spmv_metric(const std::string& kernel, const std::string& ordering,
                        const std::string& suffix);

/// Sets per-layer metric `name`, which must be one RunResult starts with.
void set_layer(RunResult& result, const std::string& name, double value,
               int n = 1, double iqr = 0.0);

/// Fills the per-layer metrics every workload shares from every span
/// recorded so far: input generation, the rates of the orderings, of
/// applying them, of the partitioners and of reuse profiling, and the
/// traced pass's per-matrix times and coverage. The pass ran from
/// `begin_us` to `end_us` (obs::trace_now_us() readings).
void add_common_layers(RunResult& result, const NnzByMatrix& nnz,
                       std::int64_t begin_us, std::int64_t end_us);

/// Workload entry points (one translation unit each).
RunResult run_sweep(const Args& args);
RunResult run_reorder_cold(const Args& args);
RunResult run_spmv_dram(const Args& args);
RunResult run_spmv_cache(const Args& args);

}  // namespace ordo_bench
