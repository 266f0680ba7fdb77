// ordo_bench: the repository benchmark. One invocation runs one workload:
//
//   ordo_bench --workload sweep|reorder_cold|spmv_dram|spmv_cache
//              [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Inputs are generated from --seed; reps run back to back for --seconds.
// Every metric is printed as `workload metric value unit n=.. iqr=..`, and
// the last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). --trace 1 records the library's spans and a few of the
// harness's own, writes them as a Chrome trace and prints a per-layer
// self-time ledger. The exit status is non-zero when any output check
// fails.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {
using namespace ordo_bench;

// Result digest of the smoke-shaped sweep at seed 2023: the study's output
// bytes. A change that alters any result file changes it.
constexpr std::uint64_t kSmokeSweepDigest2023 = 0x90885bcadad54651ULL;

[[noreturn]] void usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload sweep|reorder_cold|spmv_dram|"
               "spmv_cache [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n",
               argv0, problem.c_str(), argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage(argv[0], "bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0.0)) {
        usage(argv[0], "bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage(argv[0], "bad --trace " + value);
      args.trace = value == "1";
    } else {
      usage(argv[0], "unknown argument " + flag);
    }
  }
  if (args.workload.empty()) usage(argv[0], "--workload is required");
  return args;
}

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%-12s %-40s %14.6g %-8s n=%d iqr=%.3g\n", workload.c_str(),
              m.name.c_str(), m.value, m.unit.c_str(), m.n, m.iqr);
}

// Self time per layer (span name up to its second slash) over the traced
// pass, largest first.
void print_ledger(const std::string& workload, const RunResult& result) {
  std::map<std::string, double> by_layer;
  double total = 0.0;
  for (const LedgerSpan& span : result.pass) {
    const std::string& name = span.event.name;
    const std::size_t slash = name.find('/', name.find('/') + 1);
    by_layer[name.substr(0, slash)] += span.self_seconds;
    total += span.self_seconds;
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, seconds] : by_layer) rows.emplace_back(seconds, layer);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("%s self-time ledger (traced pass, %.3f s in spans):\n",
              workload.c_str(), total);
  for (const auto& [seconds, layer] : rows) {
    std::printf("  %-32s %10.4f s %6.1f%%\n", layer.c_str(), seconds,
                total > 0.0 ? 100.0 * seconds / total : 0.0);
  }
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return text;
}

// {"name": {"value": v, "unit": u[, "n": n, "iqr": q]}, ...}
std::string metrics_json(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (detail) {
      out += ", \"n\": " + std::to_string(m.n) + ", \"iqr\": " + number(m.iqr);
    }
    out += "}";
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i ? ", " : "") + number(samples[i]);
  }
  return out + "]";
}

std::string json_line(const RunResult& result,
                      const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_json(metrics, false) + "}";
}

// Everything one run measured, for baselines and later inspection.
std::string detail_json(const Args& args, const RunResult& result) {
  std::string out = "{\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + number(args.seconds);
  out += ", \"threads\": " + std::to_string(thread_cap());
  out += ", \"cpu\": ";
  ordo::obs::append_json_string(out, ordo::obs::host_info().cpu);
  out += ", \"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ",\n \"end_to_end\": " + metrics_json(result.end_to_end, true);
  if (!result.info.empty()) {
    out += ",\n \"info\": " + metrics_json(result.info, false);
  }
  if (args.trace) {
    out += ",\n \"per_layer\": " + metrics_json(result.per_layer, true);
  }
  out += ",\n \"rep_seconds\": " + samples_json(result.rep_seconds);
  out += ",\n \"rep_rss_mb\": " + samples_json(result.rep_rss_mb);
  out += ",\n \"setup_seconds\": " + samples_json(result.setup_seconds);
  return out + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::map<std::string, RunResult (*)(const Args&)> workloads = {
      {"sweep", run_sweep},
      {"reorder_cold", run_reorder_cold},
      {"spmv_dram", run_spmv_dram},
      {"spmv_cache", run_spmv_cache},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    usage(argv[0], "unknown workload " + args.workload);
  }
  omp_set_num_threads(thread_cap());
  if (args.trace) ordo::obs::set_tracing_enabled(true);

  RunResult result;
  try {
    result = workload->second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.workload == "sweep") {
    std::printf("%-12s result digest %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(result.digest));
    if (args.smoke && args.seed == 2023 &&
        result.digest != kSmokeSweepDigest2023) {
      result.fail("sweep: result digest differs from the recorded one");
    }
  }

  namespace fs = std::filesystem;
  const fs::path out_dir =
      fs::read_symlink("/proc/self/exe").parent_path() / "results";
  fs::create_directories(out_dir);
  for (const Metric& m : result.end_to_end) print_metric(args.workload, m);
  for (const Metric& m : result.info) print_metric(args.workload, m);
  if (args.trace) {
    for (const Metric& m : result.per_layer) print_metric(args.workload, m);
    print_ledger(args.workload, result);
    const fs::path trace_path =
        out_dir / ("ordo_bench_" + args.workload + ".trace.json");
    ordo::obs::write_chrome_trace_file(trace_path.string());
    std::printf("%-12s trace written to %s\n", args.workload.c_str(),
                trace_path.c_str());
  }

  // The per-rep walls in the repository's BENCH_*.json schema, so
  // tools/ordo_bench_diff.py compares two runs unchanged.
  const std::string report_name = "ordo_bench_" + args.workload;
  ordo::obs::set_bench_report_name(report_name);
  ordo::obs::set_bench_report_output_path(
      (out_dir / ("BENCH_" + report_name + ".json")).string());
  for (const auto& [name, samples] :
       {std::pair{"wall_s", &result.rep_seconds},
        std::pair{"setup_s", &result.setup_seconds}}) {
    ordo::obs::BenchCase bench_case;
    bench_case.name = name;
    bench_case.rep_seconds = *samples;
    ordo::obs::bench_report().add_case(std::move(bench_case));
  }
  ordo::obs::write_bench_report();
  std::ofstream(out_dir / (report_name + ".json")) << detail_json(args, result);

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "ordo_bench: check failed: %s\n", error.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n",
              json_line(result, args.trace ? result.per_layer
                                           : result.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
