// Full-study driver CLI: generates the corpus, runs the complete sweep
// (7 orderings x 8 machines x the kernel set) on the pipeline scheduler and
// writes the artifact-style result files — the programmatic entry point
// behind every figure/table bench, exposed as a standalone tool.
//
//   ./run_study [--count N] [--scale S] [--out DIR] [--seed K] [--jobs N]
//               [--task-timeout S] [--resume|--no-resume]
//               [--verbose] [--log quiet|progress|debug] [--kernels id,...]
//               [--list-kernels] [--allow-nondeterministic] [--hw]
//               [--status-file PATH] [--auto-order]
//               [--spmv-budget N] [--export-features FILE]
//
// Auto-order (the learned selector, src/select/): --auto-order runs the
// committed model over every row, appends per-matrix pick / oracle / regret
// columns to the result files, and prints the aggregate oracle-gap summary;
// --spmv-budget sets the N in "pays off within N SpMV calls".
// --export-features writes the schema-versioned selector feature vectors
// (one JSON line per matrix × thread count) for tools/ordo_train_selector.py.
//
// Live telemetry: --status-file PATH rewrites a status snapshot to PATH
// every second (atomic rename); watch it with tools/ordo_top.py --file PATH.
//
// The kernel set defaults to the studied csr_1d/csr_2d pair; --kernels
// extends it with any ids registered in ordo::engine (--list-kernels shows
// them). The pair's result files keep the artifact's exact names and
// format; extra kernels are written as additional files.
//
// The sweep checkpoints one JSON line per completed matrix into
// <out>/study_journal.jsonl; an interrupted run restarted with the same
// arguments resumes where it stopped (--no-resume recomputes from scratch).
// Result files are byte-identical for every --jobs value.
//
// Observability: ORDO_TRACE/ORDO_LOG/ORDO_METRICS/ORDO_PROFILE are honoured
// (see src/obs/obs.hpp); the trace and metrics files are written on exit.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "core/auto_order.hpp"
#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "obs/hw/membw.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/study_pipeline.hpp"

using namespace ordo;

namespace {

void append_kernel_list(std::vector<std::string>& kernels, const char* list) {
  std::string id;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!id.empty()) kernels.push_back(id);
      id.clear();
      if (*p == '\0') break;
    } else {
      id += *p;
    }
  }
}

void print_kernel_table(std::FILE* out) {
  std::fprintf(out, "registered kernels:\n");
  for (const std::string& id : engine::kernel_ids()) {
    const engine::KernelDesc& desc = engine::kernel(id);
    std::string flags;
    if (!desc.caps.parallel) flags += " serial";
    if (!desc.caps.deterministic) flags += " nondeterministic";
    if (desc.caps.needs_symmetric) flags += " needs-symmetric";
    if (desc.caps.transposed_output) flags += " transposed-output";
    if (flags.empty()) flags = " -";
    std::fprintf(out, "  %-16s %-12s%s\n    %s\n", id.c_str(),
                 desc.display_name.c_str(), flags.c_str(),
                 desc.summary.c_str());
  }
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options]\n"
               "\n"
               "  --count N          corpus matrices (default %d, or "
               "ORDO_CORPUS_COUNT)\n"
               "  --scale S          per-matrix nonzero scale (default 1.0, "
               "or ORDO_CORPUS_SCALE)\n"
               "  --out DIR          result/cache directory (default "
               "ordo_results, or ORDO_RESULTS_DIR)\n"
               "  --seed K           corpus master seed (default 2023)\n"
               "  --jobs N           parallel per-matrix tasks; 1 = "
               "sequential, 0 = one per CPU in the affinity mask\n"
               "                     (default 1, or ORDO_JOBS)\n"
               "  --task-timeout S   soft per-matrix deadline in seconds; a "
               "task past it is cancelled\n"
               "                     cooperatively and recorded as a failure "
               "(default: none)\n"
               "  --resume           replay <out>/study_journal.jsonl from an "
               "interrupted run (default)\n"
               "  --no-resume        ignore any existing journal and "
               "recompute every matrix\n"
               "  --kernels LIST     comma-separated engine kernel ids swept "
               "in addition to the\n"
               "                     studied csr_1d,csr_2d pair (see "
               "--list-kernels)\n"
               "  --list-kernels     print the registered kernels and exit\n"
               "  --allow-nondeterministic\n"
               "                     permit kernels marked deterministic=false "
               "in a checkpointed\n"
               "                     sweep (their rows are not byte-reproducible "
               "on resume)\n"
               "  --hw               open the hardware performance-counter "
               "session (= ORDO_HW=1)\n"
               "                     and attach host-measured IPC/LLC/GBps "
               "columns to every row;\n"
               "                     degrades gracefully when perf_event is "
               "unavailable\n"
               "  --status-file PATH rewrite the live study status JSON to "
               "PATH every second\n"
               "                     (= ORDO_STATUS_FILE); watch with "
               "tools/ordo_top.py --file PATH\n"
               "  --auto-order       run the learned ordering selector "
               "(src/select/) over every\n"
               "                     row: appends per-matrix pick / oracle / "
               "regret columns to the\n"
               "                     result files and prints the aggregate "
               "oracle-gap summary\n"
               "  --spmv-budget N    SpMV calls the one-off reorder cost is "
               "amortized over in the\n"
               "                     auto-order net times (default %.0f)\n"
               "  --export-features FILE\n"
               "                     write the selector feature vectors "
               "(schema-versioned JSON\n"
               "                     lines, one per matrix x thread count) "
               "and continue\n"
               "  --verbose          shorthand for --log progress\n"
               "  --log LEVEL        quiet|progress|debug (default quiet, or "
               "ORDO_LOG)\n"
               "  --help             this message\n",
               argv0, CorpusOptions{}.count, StudyOptions{}.spmv_budget);
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  CorpusOptions corpus = corpus_options_from_env();
  StudyOptions study;
  study.model = model_options_from_env();
  std::string out_dir = default_results_dir();
  std::string status_file;
  std::string features_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      require(i + 1 < argc, "run_study: missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--count") {
      corpus.count =
          parse_whole_number<int>(next(), "run_study: --count", 1);
    } else if (arg == "--scale") {
      corpus.scale = parse_real_number(next(), "run_study: --scale", 0.01);
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--seed") {
      corpus.seed = parse_whole_number<std::uint64_t>(
          next(), "run_study: --seed", 0);
    } else if (arg == "--jobs") {
      study.jobs = parse_jobs(next(), "run_study: --jobs");
    } else if (arg == "--task-timeout") {
      study.task_timeout_seconds =
          parse_real_number(next(), "run_study: --task-timeout", 0.0);
    } else if (arg == "--resume") {
      study.resume = true;
    } else if (arg == "--no-resume") {
      study.resume = false;
    } else if (arg == "--kernels") {
      append_kernel_list(study.kernels, next());
    } else if (arg == "--list-kernels") {
      print_kernel_table(stdout);
      return 0;
    } else if (arg == "--allow-nondeterministic") {
      study.allow_nondeterministic = true;
    } else if (arg == "--hw") {
      obs::hw::set_enabled(true);
    } else if (arg == "--status-file") {
      status_file = next();
    } else if (arg == "--auto-order") {
      study.auto_order = true;
    } else if (arg == "--spmv-budget") {
      study.spmv_budget =
          parse_real_number(next(), "run_study: --spmv-budget", 1.0);
    } else if (arg == "--export-features") {
      features_file = next();
    } else if (arg == "--verbose") {
      study.verbose = true;
    } else if (arg == "--log") {
      obs::set_log_level(obs::parse_log_level(next()));
    } else if (arg == "--help") {
      print_usage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "run_study: unknown argument %s\n\n", arg.c_str());
      print_usage(stderr, argv[0]);
      return 2;
    }
  }

  // Live telemetry (in addition to any ORDO_STATUS_FILE wiring).
  if (!status_file.empty()) {
    // A bare filename has an empty parent_path, which create_directories
    // rejects as an invalid argument.
    const std::filesystem::path parent =
        std::filesystem::path(status_file).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    obs::status::start_heartbeat(status_file);
  }

  study.hw_counters = obs::hw::enabled();  // --hw or ORDO_HW=1
  if (study.hw_counters) {
    std::printf("hw counters: %s (%s)\n", obs::hw::backend_name().c_str(),
                obs::hw::backend_detail().c_str());
  }

  std::printf(
      "running study: %d matrices (scale %.2f, seed %llu, jobs %d) -> %s\n",
      corpus.count, corpus.scale,
      static_cast<unsigned long long>(corpus.seed), study.jobs,
      out_dir.c_str());
  const StudyResults results = load_or_run_study(out_dir, corpus, study);

  std::printf("\n%zu result tables written/loaded:\n", results.size());
  for (const auto& [key, rows] : results) {
    std::printf("  %-10s %s: %zu matrices\n", key.first.c_str(),
                spmv_kernel_name(key.second).c_str(), rows.size());
    if (rows.size() != static_cast<std::size_t>(corpus.count)) {
      std::printf("    (%d matrices missing — see %s/%s)\n",
                  corpus.count - static_cast<int>(rows.size()), out_dir.c_str(),
                  pipeline::kFailuresFilename);
    }
  }

  if (!features_file.empty()) {
    write_feature_export(features_file, results);
    std::printf("feature vectors (schema v%d) -> %s\n",
                features::kSelectorFeatureVersion, features_file.c_str());
  }

  if (study.auto_order) {
    // Per-(machine, kernel) oracle-gap table plus the all-rows aggregate.
    // "net/call" figures are geomean per-call seconds including the
    // amortized reorder cost; the selector must beat the best single fixed
    // ordering for the policy to be worth shipping.
    std::printf(
        "\nauto-order selector (model v%d, budget %.0f SpMV calls/matrix):\n"
        "  %-10s %-8s %9s %11s %12s %12s %16s\n",
        select::model_version(), study.spmv_budget, "machine", "kernel",
        "hit-rate", "mean-regret", "pick net[s]", "oracle gap",
        "best fixed net[s]");
    auto print_summary = [](const SelectionSummary& s) {
      const auto kinds = study_orderings();
      std::printf(
          "  %-10s %-8s %8.1f%% %10.2f%% %12.3e %11.2f%% %12.3e (%s)\n",
          s.machine.c_str(), s.kernel_id.c_str(), 100.0 * s.hit_rate(),
          100.0 * s.mean_regret, s.geomean_pick_net, 100.0 * s.oracle_gap(),
          s.geomean_fixed_net[static_cast<std::size_t>(s.best_fixed)],
          ordering_name(kinds[static_cast<std::size_t>(s.best_fixed)])
              .c_str());
    };
    for (const SelectionSummary& s : summarize_selection(results, study)) {
      print_summary(s);
    }
    const SelectionSummary total = total_selection_summary(results, study);
    print_summary(total);
    std::printf(
        "  overall: selector %s the best fixed ordering by %.2f%% on "
        "geomean net time (oracle gap %.2f%%)\n",
        total.win_over_best_fixed() >= 0.0 ? "beats" : "LOSES TO",
        100.0 * total.win_over_best_fixed(), 100.0 * total.oracle_gap());
    std::printf("  pick distribution:");
    const auto kinds = study_orderings();
    for (std::size_t k = 0; k < select::kNumOrderings; ++k) {
      std::printf(" %s=%lld", ordering_name(kinds[k]).c_str(),
                  static_cast<long long>(total.picks[k]));
    }
    std::printf("\n");
  }

  if (study.hw_counters) {
    // Host measurements repeat across the modeled machines, so summarise
    // each kernel once (over every matrix × ordering measurement).
    std::printf("\nhost hw counters per kernel:\n");
    std::set<std::string> seen;
    for (const auto& [key, rows] : results) {
      const std::string kernel_id = key.second.id();
      if (!seen.insert(kernel_id).second) continue;
      int valid = 0;
      double ipc_sum = 0.0;
      double miss_sum = 0.0;
      double gbps_sum = 0.0;
      for (const MeasurementRow& row : rows) {
        for (const OrderingMeasurement& m : row.orderings) {
          if (!m.has_hw) continue;
          ++valid;
          ipc_sum += m.hw_ipc;
          miss_sum += m.hw_llc_miss_rate;
          gbps_sum += m.hw_gbps;
        }
      }
      if (valid == 0) {
        std::printf("  %-10s counters absent (%s)\n", kernel_id.c_str(),
                    obs::hw::backend_detail().c_str());
      } else {
        std::printf(
            "  %-10s %d measurements: mean IPC %.2f, LLC miss %.1f%%, "
            "%.2f GB/s\n",
            kernel_id.c_str(), valid, ipc_sum / valid,
            100.0 * miss_sum / valid, gbps_sum / valid);
      }
    }
    if (obs::hw::measured_peak_gbps() > 0.0) {
      std::printf("  peak (STREAM-like): %.2f GB/s\n",
                  obs::hw::measured_peak_gbps());
    }
  }

  const engine::PlanCache::Stats cache = engine::plan_cache().stats();
  if (cache.lookups() > 0) {
    std::printf(
        "\nengine plan cache: %lld hits / %lld lookups (%.1f%% hit rate, "
        "%lld evictions)\n",
        static_cast<long long>(cache.hits),
        static_cast<long long>(cache.lookups()), 100.0 * cache.hit_rate(),
        static_cast<long long>(cache.evictions));
  }
  obs::finalize();
  return 0;
}
