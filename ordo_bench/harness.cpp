#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <stdexcept>

#include "obs/stopwatch.hpp"

namespace ordo_bench {

int thread_cap() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = std::max(1, CPU_COUNT(&set));
  }
  return std::min(4, cpus);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (Linux 4.0+); a kernel that
  // refuses leaves the process-wide peak, which is still a valid bound.
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

// statistics.quantiles(data, n=4) with the default exclusive method.
std::vector<double> quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::vector<double> cuts;
  for (int i = 1; i < 4; ++i) {
    const double m = static_cast<double>(n) + 1.0;
    double j_real = i * m / 4.0;
    auto j = static_cast<long>(std::floor(j_real));
    j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
    const double delta = i * m - static_cast<double>(j) * 4.0;
    cuts.push_back((samples[static_cast<std::size_t>(j) - 1] * (4.0 - delta) +
                    samples[static_cast<std::size_t>(j)] * delta) /
                   4.0);
  }
  return cuts;
}

}  // namespace

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double iqr_of(std::vector<double> samples) {
  if (samples.size() < 2) return 0.0;
  const std::vector<double> q = quartiles(std::move(samples));
  return q[2] - q[0];
}

ordo::Permutation window_permutation(ordo::index_t n, ordo::index_t window,
                                     std::uint64_t seed) {
  ordo::Permutation perm = ordo::identity_permutation(n);
  std::mt19937_64 rng(seed);
  for (ordo::index_t begin = 0; begin < n; begin += window) {
    std::shuffle(perm.begin() + begin,
                 perm.begin() + std::min<ordo::index_t>(begin + window, n), rng);
  }
  return perm;
}

void measure_reps(double seconds, const std::function<double()>& rep,
                  RunResult& result) {
  ordo::obs::Stopwatch window;
  while (result.rep_seconds.size() < 3 || window.seconds() < seconds) {
    reset_peak_rss();
    result.rep_seconds.push_back(rep());
    result.rep_rss_mb.push_back(peak_rss_mb());
  }
}

std::vector<double> repeat_setup(const std::function<void()>& setup) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 3 || (total < 1.0 && samples.size() < 15)) {
    ordo::obs::Stopwatch watch;
    setup();
    samples.push_back(watch.seconds());
    total += samples.back();
  }
  return samples;
}

// ---------------------------------------------------------------------------

std::vector<LedgerSpan> collect_ledger() {
  std::vector<LedgerSpan> spans;
  // Open ancestors per thread. collect_trace() sorts by start, a parent
  // before a child that starts in the same microsecond, so a span's
  // ancestors are the spans of its thread that are still open and have a
  // smaller depth.
  std::map<int, std::vector<std::size_t>> open;
  for (ordo::obs::SpanEvent& event : ordo::obs::collect_trace()) {
    LedgerSpan span;
    span.event = std::move(event);
    span.self_seconds = span.seconds();
    std::vector<std::size_t>& stack = open[span.event.thread_id];
    while (!stack.empty()) {
      const ordo::obs::SpanEvent& top = spans[stack.back()].event;
      if (top.depth < span.event.depth &&
          top.start_us + top.duration_us >= span.event.start_us) {
        break;
      }
      stack.pop_back();
    }
    for (const char* prefix : {"study/matrix/", "bench/matrix/"}) {
      if (span.event.name.rfind(prefix, 0) == 0) {
        span.matrix = span.event.name.substr(std::string(prefix).size());
        span.is_matrix = true;
      }
    }
    if (!stack.empty()) {
      LedgerSpan& parent = spans[stack.back()];
      if (parent.event.depth == span.event.depth - 1) {
        parent.self_seconds -= span.seconds();
      }
      if (!span.is_matrix) span.matrix = parent.matrix;
    }
    stack.push_back(spans.size());
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<LedgerSpan> spans_within(const std::vector<LedgerSpan>& spans,
                                     std::int64_t begin_us,
                                     std::int64_t end_us) {
  std::vector<LedgerSpan> inside;
  for (const LedgerSpan& span : spans) {
    if (span.event.start_us >= begin_us &&
        span.event.start_us + span.event.duration_us <= end_us) {
      inside.push_back(span);
    }
  }
  return inside;
}

std::vector<LedgerSpan> spans_named(const std::vector<LedgerSpan>& spans,
                                    const std::string& name) {
  std::vector<LedgerSpan> named;
  for (const LedgerSpan& span : spans) {
    if (span.event.name == name) named.push_back(span);
  }
  return named;
}

double mnnz_per_second(const std::vector<LedgerSpan>& spans,
                       const NnzByMatrix& nnz, bool self) {
  double work = 0.0;
  double seconds = 0.0;
  for (const LedgerSpan& span : spans) {
    const auto it = nnz.find(span.matrix);
    if (it == nnz.end()) {
      throw std::logic_error("span " + span.event.name +
                             " ran on no known matrix");
    }
    work += it->second;
    seconds += self ? span.self_seconds : span.seconds();
  }
  return seconds > 0.0 ? work / seconds * 1e-6 : 0.0;
}

double spans_per_second(const std::vector<LedgerSpan>& spans) {
  double seconds = 0.0;
  for (const LedgerSpan& span : spans) seconds += span.seconds();
  return seconds > 0.0 ? static_cast<double>(spans.size()) / seconds : 0.0;
}

// ---------------------------------------------------------------------------

void add_end_to_end(RunResult& result, int matrices_per_rep) {
  const std::vector<double>& reps = result.rep_seconds;
  const double wall = median_of(reps);
  result.end_to_end = {
      {"setup_s", median_of(result.setup_seconds), "s",
       static_cast<int>(result.setup_seconds.size()),
       iqr_of(result.setup_seconds)},
      {"wall_s", wall, "s", static_cast<int>(reps.size()), iqr_of(reps)},
      // The throughput form of the median rep; a mean over the window
      // would follow the slowest reps a noisy host produces.
      {"matrices_per_s", wall > 0.0 ? matrices_per_rep / wall : 0.0, "1/s",
       static_cast<int>(reps.size()), 0.0},
      {"peak_rss_mb", median_of(result.rep_rss_mb), "MB",
       static_cast<int>(result.rep_rss_mb.size()), iqr_of(result.rep_rss_mb)},
  };
}

namespace {

// Every per-layer metric, in report order, with its unit.
std::vector<Metric> layer_metrics() {
  std::vector<std::pair<std::string, std::string>> specs = {
      {"corpus.generate_s", "s"},
      {"trace.wall_s", "s"},
      {"trace.coverage", "frac"},
      {"matrix.p50_s", "s"},
      {"matrix.p75_s", "s"},
      {"matrix.max_s", "s"},
      {"reorder.RCM.mnnz_per_s", "Mnnz/s"},
      {"reorder.AMD.mnnz_per_s", "Mnnz/s"},
      {"reorder.ND.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.mnnz_per_s", "Mnnz/s"},
      {"reorder.HP.mnnz_per_s", "Mnnz/s"},
      {"reorder.Gray.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k16.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k32.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k48.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k64.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k72.mnnz_per_s", "Mnnz/s"},
      {"reorder.GP.k128.mnnz_per_s", "Mnnz/s"},
      {"reorder.apply.mnnz_per_s", "Mnnz/s"},
      {"graph.from_matrix.mnnz_per_s", "Mnnz/s"},
      {"partition.graph_kway.mnnz_per_s", "Mnnz/s"},
      {"partition.hypergraph_kway.mnnz_per_s", "Mnnz/s"},
      {"perfmodel.profile.mnnz_per_s", "Mnnz/s"},
      {"perfmodel.evaluate_per_s", "1/s"},
      {"study.matrix_self.mnnz_per_s", "Mnnz/s"},
      {"engine.prepare_plan_per_s", "1/s"},
      {"engine.plan_cache_hit_ratio", "frac"},
      {"pipeline.load_journal.records_per_s", "1/s"},
      {"pipeline.parallel_efficiency", "frac"},
      {"core.results_io.mb_per_s", "MB/s"},
      {"spmv.gflops", "GFLOP/s"},
      {"spmv.bw_frac", "frac"},
      {"spmv.reorder_gain", "x"},
      {"spmv.bytes_per_launch", "B"},
      {"membw.peak_gbps", "GB/s"},
  };
  // Kernel rate per (kernel, ordering), geomean over the workload's
  // matrices, and the bandwidth fraction of the orderings spmv_dram runs
  // (every one but GP).
  for (const char* kernel : kSpmvKernels) {
    for (const char* ordering : kSpmvOrderings) {
      specs.emplace_back(spmv_metric(kernel, ordering, "gflops"), "GFLOP/s");
    }
  }
  for (const char* kernel : kSpmvKernels) {
    for (const char* ordering : kSpmvOrderings) {
      if (std::string(ordering) == "GP") continue;
      specs.emplace_back(spmv_metric(kernel, ordering, "bw_frac"), "frac");
    }
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : specs) {
    metrics.push_back({name, 0.0, unit, 0, 0.0});
  }
  return metrics;
}

}  // namespace

std::string spmv_metric(const std::string& kernel, const std::string& ordering,
                        const std::string& suffix) {
  return "spmv." + kernel + "." + ordering + "." + suffix;
}

RunResult::RunResult() : per_layer(layer_metrics()) {}

void set_layer(RunResult& result, const std::string& name, double value,
               int n, double iqr) {
  for (Metric& metric : result.per_layer) {
    if (metric.name == name) {
      metric.value = value;
      metric.n = n;
      metric.iqr = iqr;
      return;
    }
  }
  throw std::logic_error("set_layer: unknown per-layer metric " + name);
}

void add_common_layers(RunResult& result, const NnzByMatrix& nnz,
                       std::int64_t begin_us, std::int64_t end_us) {
  const std::vector<LedgerSpan> spans = collect_ledger();
  result.pass = spans_within(spans, begin_us, end_us);
  // Input generation runs once per setup; report the mean per setup.
  double generate_seconds = 0.0;
  for (const LedgerSpan& span : spans_named(spans, "bench/generate")) {
    generate_seconds += span.seconds();
  }
  set_layer(result, "corpus.generate_s",
            result.setup_seconds.empty()
                ? 0.0
                : generate_seconds /
                      static_cast<double>(result.setup_seconds.size()));
  const double pass_seconds = static_cast<double>(end_us - begin_us) * 1e-6;
  set_layer(result, "trace.wall_s", pass_seconds);

  std::vector<double> matrix_seconds;
  double covered = 0.0;
  for (const LedgerSpan& span : result.pass) {
    if (span.is_matrix) {
      matrix_seconds.push_back(span.seconds());
      covered += span.seconds();
    }
  }
  const int n = static_cast<int>(matrix_seconds.size());
  std::sort(matrix_seconds.begin(), matrix_seconds.end());
  if (n > 0) {
    // Nearest-rank percentiles: always one of the measured matrices.
    auto percentile = [&](double p) {
      const auto rank = static_cast<std::size_t>(std::ceil(p * n));
      return matrix_seconds[std::max<std::size_t>(rank, 1) - 1];
    };
    set_layer(result, "matrix.p50_s", percentile(0.50), n);
    set_layer(result, "matrix.p75_s", percentile(0.75), n);
    set_layer(result, "matrix.max_s", matrix_seconds.back(), n);
  }
  set_layer(result, "trace.coverage",
            pass_seconds > 0.0 ? covered / pass_seconds : 0.0, n);

  for (const char* kind : {"RCM", "AMD", "ND", "GP", "HP", "Gray"}) {
    set_layer(result, std::string("reorder.") + kind + ".mnnz_per_s",
              mnnz_per_second(spans_named(spans, std::string("reorder/") + kind),
                              nnz));
  }
  for (const auto& [metric, span] :
       {std::pair{"reorder.apply", "bench/apply"},
        std::pair{"partition.graph_kway", "partition/graph_kway"},
        std::pair{"partition.hypergraph_kway", "partition/hypergraph_kway"},
        std::pair{"perfmodel.profile", "model/reuse_profile"}}) {
    set_layer(result, std::string(metric) + ".mnnz_per_s",
              mnnz_per_second(spans_named(spans, span), nnz));
  }
}

}  // namespace ordo_bench
