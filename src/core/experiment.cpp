#include "core/experiment.hpp"

#include "check/check.hpp"
#include "core/auto_order.hpp"
#include "engine/engine.hpp"
#include "features/features.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/study_pipeline.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ordo {
namespace {

// The per-thread work columns come from the engine plan (the partition the
// execution layer actually runs); the timing columns from the model.
OrderingMeasurement to_measurement(const SpmvEstimate& estimate,
                                   const engine::ThreadWork& work) {
  OrderingMeasurement m;
  m.min_thread_nnz = work.min_nnz;
  m.max_thread_nnz = work.max_nnz;
  m.mean_thread_nnz = work.mean_nnz;
  m.imbalance = work.imbalance;
  m.seconds = estimate.seconds;
  m.gflops_max = estimate.gflops;
  // The artifact reports both the best of 100 runs and the mean of the warm
  // runs; the model is deterministic so the two coincide.
  m.gflops_mean = estimate.gflops;
  return m;
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == ' ') c = '_';
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Host-measured hardware counters for one (kernel, reordered matrix) pair.
// The modeled columns price the paper's eight machines; this executes the
// kernel on *this* host under a counter scope and reports what the silicon
// did — the ground truth the model columns can be checked against. valid
// stays false whenever the counter session is off or the perf backend
// degraded, so rows carry "absent", never fabricated zeros.
struct HostHwSample {
  bool valid = false;
  double ipc = 0.0;
  double llc_miss_rate = 0.0;
  double gbps = 0.0;
  double seconds = 0.0;
};

HostHwSample measure_host_hw(const CsrMatrix& matrix, const SpmvKernel& kernel,
                             const std::string& scope_name) {
  HostHwSample sample;
  if (!obs::hw::enabled()) return sample;
  const int threads = obs::affinity_cpu_count();
  const auto plan = engine::prepare_plan(matrix, kernel, threads);
  std::vector<value_t> x(static_cast<std::size_t>(matrix.num_cols()),
                         value_t{1});
  std::vector<value_t> y(static_cast<std::size_t>(matrix.num_rows()),
                         value_t{0});
  engine::spmv(*plan, matrix, x, y);  // warm-up: page faults, cache fill
  constexpr int kReps = 3;
  obs::hw::CounterScope scope(scope_name);
  obs::Stopwatch watch;
  for (int rep = 0; rep < kReps; ++rep) engine::spmv(*plan, matrix, x, y);
  const double window_seconds = watch.seconds();
  const obs::hw::CounterSet& counters = scope.stop();
  if (!counters.available) return sample;
  const obs::hw::DerivedMetrics derived =
      obs::hw::derive_metrics(counters, window_seconds);
  if (!derived.valid) return sample;
  sample.valid = true;
  sample.ipc = derived.ipc;
  sample.llc_miss_rate = derived.llc_miss_rate;
  sample.gbps = derived.gbps;
  sample.seconds = window_seconds / kReps;
  return sample;
}

}  // namespace

std::vector<SpmvKernel> study_kernels(const StudyOptions& options) {
  std::vector<SpmvKernel> kernels = {SpmvKernel::k1D, SpmvKernel::k2D};
  for (const std::string& id : options.kernels) {
    const engine::KernelDesc& desc = engine::kernel(id);  // throws on unknown
    require(!desc.caps.needs_symmetric,
            "study_kernels: kernel '" + id +
                "' requires symmetric lower-triangle storage, but the study "
                "corpus stores matrices in full");
    SpmvKernel kernel(id);
    if (std::find(kernels.begin(), kernels.end(), kernel) == kernels.end()) {
      kernels.push_back(std::move(kernel));
    }
  }
  return kernels;
}

std::vector<double> reordering_speedups(const MeasurementRow& row) {
  require(row.orderings.size() == 7,
          "reordering_speedups: row must have 7 ordering measurements");
  std::vector<double> speedups;
  speedups.reserve(6);
  for (std::size_t k = 1; k < 7; ++k) {
    speedups.push_back(row.orderings[k].gflops_max /
                       row.orderings[0].gflops_max);
  }
  return speedups;
}

MatrixStudyRows run_matrix_study(const CorpusEntry& entry,
                                 const StudyOptions& options) {
  obs::Span matrix_span("study/matrix/" + entry.name);
  ORDO_COUNTER_ADD("study.matrices", 1);

  const auto& machines = table2_architectures();
  const auto kinds = study_orderings();
  const std::vector<SpmvKernel> kernels = study_kernels(options);
  const std::atomic<bool>* cancel = options.reorder.cancel;

  // Arch-independent orderings, computed once. The GP ordering matches the
  // part count to the machine's cores (Section 3.3), so it is computed per
  // distinct core count instead, below.
  // Each phase's wall time lands in a "phase.<name>" histogram, the
  // per-phase overhead distributions the reordering-effectiveness question
  // hinges on. A phase deliberately includes its own logging and
  // validation.
  obs::Phase reorder_phase(
      obs::Phase::Parts().status("reorder").histogram("phase.reorder"));
  std::map<OrderingKind, CsrMatrix> reordered;
  for (OrderingKind kind : kinds) {
    if (kind == OrderingKind::kGp) continue;
    poll_cancelled(cancel, "run_matrix_study");
    // The window covers only reorder+apply, not the validator below.
    obs::Phase window(obs::Phase::Parts().hw("reorder." + ordering_name(kind)));
    [[maybe_unused]] const auto it = reordered
        .emplace(kind, apply_ordering(
                           entry.matrix,
                           compute_ordering(entry.matrix, kind,
                                            options.reorder)))
        .first;
    const double reorder_millis = window.close() * 1e3;
    ORDO_CHECK(validate_reordered_matrix(
        entry.matrix, it->second,
        "run_matrix_study(" + entry.name + "/" + ordering_name(kind) + ")"));
    obs::logf(obs::LogLevel::kDebug, "  %s reorder+apply: %.2f ms",
              ordering_name(kind).c_str(), reorder_millis);
  }
  // GP, one ordering per distinct core count (in the order the machines
  // first name them), all from one shared recursive-bisection tree. Timed
  // as reorder.GP.shared_seconds; reorder.GP.seconds stays the cold
  // single-count cost.
  std::vector<index_t> gp_parts;
  for (const Architecture& arch : machines) {
    if (std::find(gp_parts.begin(), gp_parts.end(), arch.cores) ==
        gp_parts.end()) {
      gp_parts.push_back(arch.cores);
    }
  }
  poll_cancelled(cancel, "run_matrix_study");
  std::map<int, CsrMatrix> gp_by_cores;
  {
    // Same discipline as the loop above: nothing but reorder+apply inside
    // the window.
    obs::Phase window(obs::Phase::Parts().hw("reorder.GP"));
    const std::vector<Ordering> gp =
        compute_gp_orderings(entry.matrix, gp_parts, options.reorder);
    for (std::size_t i = 0; i < gp_parts.size(); ++i) {
      gp_by_cores.emplace(gp_parts[i], apply_ordering(entry.matrix, gp[i]));
    }
    const double reorder_millis = window.close() * 1e3;
    for ([[maybe_unused]] const index_t cores : gp_parts) {
      ORDO_CHECK(validate_reordered_matrix(
          entry.matrix, gp_by_cores.at(cores),
          "run_matrix_study(" + entry.name + "/gp" + std::to_string(cores) +
              ")"));
    }
    obs::logf(obs::LogLevel::kDebug,
              "  GP(%zu part counts) reorder+apply: %.2f ms", gp_parts.size(),
              reorder_millis);
  }

  reorder_phase.close();

  // One reuse profile per reordered matrix, shared across machines.
  obs::Phase profile_phase(
      obs::Phase::Parts().status("profile").histogram("phase.profile"));
  std::map<OrderingKind, SpmvModel> models;
  {
    ORDO_SCOPE("study/reuse_profiles");
    for (const auto& [kind, matrix] : reordered) {
      poll_cancelled(cancel, "run_matrix_study");
      models.emplace(kind, SpmvModel(matrix, options.model));
    }
  }
  std::map<int, SpmvModel> gp_models;
  {
    ORDO_SCOPE("study/reuse_profiles_gp");
    for (const auto& [cores, matrix] : gp_by_cores) {
      poll_cancelled(cancel, "run_matrix_study");
      gp_models.emplace(cores, SpmvModel(matrix, options.model));
    }
  }

  profile_phase.close();

  // Order-sensitive features: bandwidth and profile are machine-
  // independent; the off-diagonal count uses the machine's core count as
  // block count and is computed per distinct thread count.
  obs::Phase features_phase(
      obs::Phase::Parts().status("features").histogram("phase.features"));
  std::map<OrderingKind, std::pair<std::int64_t, std::int64_t>> band_profile;
  for (const auto& [kind, matrix] : reordered) {
    band_profile[kind] = {matrix_bandwidth(matrix), matrix_profile(matrix)};
  }
  std::map<int, std::pair<std::int64_t, std::int64_t>> gp_band_profile;
  for (const auto& [cores, matrix] : gp_by_cores) {
    gp_band_profile[cores] = {matrix_bandwidth(matrix),
                              matrix_profile(matrix)};
  }
  std::map<std::pair<int, int>, std::int64_t> offdiag;  // (ordering idx, cores)
  for (const Architecture& arch : machines) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto key = std::make_pair(static_cast<int>(k), arch.cores);
      if (offdiag.count(key)) continue;
      const CsrMatrix& matrix = kinds[k] == OrderingKind::kGp
                                    ? gp_by_cores.at(arch.cores)
                                    : reordered.at(kinds[k]);
      offdiag[key] = off_diagonal_block_nonzeros(matrix, arch.cores);
    }
  }
  features_phase.close();

  // Host hardware-counter measurements, one per (kernel, reordered matrix).
  // GP matrices differ per core count, so those are keyed by cores; every
  // machine row with that core count shares the measurement.
  std::map<std::pair<std::string, OrderingKind>, HostHwSample> host_hw;
  std::map<std::pair<std::string, int>, HostHwSample> gp_host_hw;
  if (options.hw_counters) {
    obs::Phase spmv_phase(obs::Phase::Parts()
                              .status("spmv")
                              .span("study/host_hw")
                              .histogram("phase.spmv"));
    for (const SpmvKernel& kernel : kernels) {
      for (const auto& [kind, matrix] : reordered) {
        poll_cancelled(cancel, "run_matrix_study");
        host_hw.emplace(
            std::make_pair(kernel.id(), kind),
            measure_host_hw(matrix, kernel,
                            "spmv_host." + kernel.id() + "." +
                                ordering_name(kind)));
      }
      for (const auto& [cores, matrix] : gp_by_cores) {
        poll_cancelled(cancel, "run_matrix_study");
        gp_host_hw.emplace(
            std::make_pair(kernel.id(), cores),
            measure_host_hw(matrix, kernel,
                            "spmv_host." + kernel.id() + ".gp"));
      }
    }
  }

  // Machines with the same core count run the same plans and differ only in
  // their cache capacities, so one pass per (kernel, core count, ordering)
  // prices the whole group. It runs inside the model span of the group's
  // first machine; the others read its estimates.
  std::map<int, std::vector<const Architecture*>> machines_by_cores;
  for (const Architecture& arch : machines) {
    machines_by_cores[arch.cores].push_back(&arch);
  }
  // (kernel, cores) -> per ordering slot, one estimate per group member.
  std::map<std::pair<SpmvKernel, int>, std::vector<std::vector<SpmvEstimate>>>
      group_estimates;

  MatrixStudyRows rows;
  obs::Phase model_phase(
      obs::Phase::Parts().status("model").histogram("phase.model"));
  for (const Architecture& arch : machines) {
    poll_cancelled(cancel, "run_matrix_study");
    const std::vector<const Architecture*>& group =
        machines_by_cores.at(arch.cores);
    const std::size_t member = static_cast<std::size_t>(
        std::find(group.begin(), group.end(), &arch) - group.begin());
    for (const SpmvKernel& kernel : kernels) {
      obs::Span eval_span("model/" + arch.name + "/" +
                          spmv_kernel_name(kernel));
      const auto [priced, first_member] =
          group_estimates.try_emplace({kernel, arch.cores});
      MeasurementRow row;
      row.group = entry.group;
      row.name = entry.name;
      row.rows = entry.matrix.num_rows();
      row.cols = entry.matrix.num_cols();
      row.nnz = entry.matrix.num_nonzeros();
      row.threads = arch.cores;
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const OrderingKind kind = kinds[k];
        const CsrMatrix& matrix = kind == OrderingKind::kGp
                                      ? gp_by_cores.at(arch.cores)
                                      : reordered.at(kind);
        const SpmvModel& model = kind == OrderingKind::kGp
                                     ? gp_models.at(arch.cores)
                                     : models.at(kind);
        // The plan (shared through the engine's cache with every
        // same-core-count machine) supplies the per-thread work columns;
        // the model prices it.
        const auto plan = engine::prepare_plan(matrix, kernel, arch.cores);
        if (first_member) {
          priced->second.push_back(model.estimate(*plan, group));
        }
        OrderingMeasurement m =
            to_measurement(priced->second[k][member],
                           engine::thread_work(plan->partition));
        const auto& bp = kind == OrderingKind::kGp
                             ? gp_band_profile.at(arch.cores)
                             : band_profile.at(kind);
        m.bandwidth = bp.first;
        m.profile = bp.second;
        m.off_diagonal_nnz =
            offdiag.at({static_cast<int>(k), arch.cores});
        if (options.hw_counters) {
          const HostHwSample& sample =
              kind == OrderingKind::kGp
                  ? gp_host_hw.at({kernel.id(), arch.cores})
                  : host_hw.at({kernel.id(), kind});
          m.has_hw = sample.valid;
          m.hw_ipc = sample.ipc;
          m.hw_llc_miss_rate = sample.llc_miss_rate;
          m.hw_gbps = sample.gbps;
          m.hw_seconds = sample.seconds;
        }
#if defined(ORDO_OBS_ENABLED)
        // Modeled per-ordering kernel time and per-thread work, aggregated
        // over matrices/machines — the per-ordering slice of
        // ordo_metrics.json.
        const std::string prefix = "study." + ordering_name(kind);
        obs::histogram(prefix + ".seconds").record(m.seconds);
        obs::histogram(prefix + ".imbalance").record(m.imbalance);
        obs::histogram(prefix + ".max_thread_nnz")
            .record(static_cast<double>(m.max_thread_nnz));
        obs::histogram(prefix + ".min_thread_nnz")
            .record(static_cast<double>(m.min_thread_nnz));
#endif
        row.orderings.push_back(m);
      }
      rows.emplace(std::make_pair(arch.name, kernel), std::move(row));
    }
  }
  model_phase.close();
  // The selector annotation happens here — inside the task, before the rows
  // reach the journal — so resumed runs replay decisions instead of
  // recomputing them, and the live `select` status section fills in as the
  // sweep progresses. It is a pure function of the row data (see
  // core/auto_order.hpp), which is what lets load_or_run_study apply the
  // same annotation to cached files.
  if (options.auto_order) annotate_rows_with_selection(rows, options);
  return rows;
}

int parse_jobs(const std::string& text, const std::string& source) {
  return parse_whole_number<int>(text, source, 0);
}

StudyResults run_full_study(const std::vector<CorpusEntry>& corpus,
                            const StudyOptions& options) {
  ORDO_SCOPE("study/run");
  ORDO_COUNTER_ADD("study.runs", 1);
  pipeline::StudyReport report = pipeline::run_study_pipeline(corpus, options);
  if (!report.failures.empty()) {
    obs::logf(obs::LogLevel::kProgress,
              "study: %zu of %zu matrices failed and were skipped "
              "(first: %s: %s)",
              report.failures.size(), corpus.size(),
              report.failures.front().name.c_str(),
              report.failures.front().error.c_str());
  }
  return std::move(report.results);
}

std::string results_filename(const SpmvKernel& kernel, const Architecture& arch,
                             int corpus_count) {
  std::ostringstream name;
  name << sanitize(kernel.id()) << '_' << sanitize(arch.name) << '_'
       << arch.cores << "_threads_ss" << corpus_count << ".txt";
  return name.str();
}

void write_results_file(const std::string& path,
                        const std::vector<MeasurementRow>& rows) {
  std::ofstream out(path);
  require(out.good(), "write_results_file: cannot open " + path);
  // The host hardware-counter columns are appended only when some row
  // actually carries them, so caches written without ORDO_HW keep the
  // artifact's exact 54-column layout (and stay byte-identical to the
  // committed result files). Readers sniff the header for ":hw_valid".
  bool with_hw = false;
  // The selector columns follow the same sniffing contract: appended (after
  // every ordering block) only when rows carry them, tagged "select:pick" in
  // the header. Default sweeps keep the artifact layout byte-identical.
  bool with_select = false;
  for (const MeasurementRow& row : rows) {
    for (const OrderingMeasurement& m : row.orderings) {
      with_hw = with_hw || m.has_hw;
    }
    with_select = with_select || row.has_select;
  }
  out << "# group name rows cols nnz threads";
  for (OrderingKind kind : study_orderings()) {
    const std::string n = ordering_name(kind);
    out << ' ' << n << ":min_nnz " << n << ":max_nnz " << n << ":mean_nnz "
        << n << ":imbalance " << n << ":seconds " << n << ":gflops_max " << n
        << ":gflops_mean " << n << ":bandwidth " << n << ":profile " << n
        << ":offdiag_nnz";
    if (with_hw) {
      out << ' ' << n << ":hw_valid " << n << ":hw_ipc " << n
          << ":hw_llc_miss_rate " << n << ":hw_gbps " << n << ":hw_seconds";
    }
  }
  if (with_select) {
    out << " select:pick select:oracle select:regret select:pick_net_s"
           " select:oracle_net_s select:amortize_calls";
  }
  out << '\n';
  out.precision(9);
  for (const MeasurementRow& row : rows) {
    out << row.group << ' ' << row.name << ' ' << row.rows << ' ' << row.cols
        << ' ' << row.nnz << ' ' << row.threads;
    for (const OrderingMeasurement& m : row.orderings) {
      out << ' ' << m.min_thread_nnz << ' ' << m.max_thread_nnz << ' '
          << m.mean_thread_nnz << ' ' << m.imbalance << ' ' << m.seconds
          << ' ' << m.gflops_max << ' ' << m.gflops_mean << ' ' << m.bandwidth
          << ' ' << m.profile << ' ' << m.off_diagonal_nnz;
      if (with_hw) {
        out << ' ' << (m.has_hw ? 1 : 0) << ' ' << m.hw_ipc << ' '
            << m.hw_llc_miss_rate << ' ' << m.hw_gbps << ' ' << m.hw_seconds;
      }
    }
    if (with_select) {
      // Picks are written by ordering name (human-auditable; parsed back
      // through parse_ordering_name).
      const auto kinds = study_orderings();
      out << ' ' << ordering_name(kinds[static_cast<std::size_t>(row.pick)])
          << ' ' << ordering_name(kinds[static_cast<std::size_t>(row.oracle)])
          << ' ' << row.regret << ' ' << row.pick_net_seconds << ' '
          << row.oracle_net_seconds << ' ' << row.pick_amortize_calls;
    }
    out << '\n';
  }
}

std::vector<MeasurementRow> read_results_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "read_results_file: cannot open " + path);
  std::vector<MeasurementRow> rows;
  std::string line;
  bool with_hw = false;      // sniffed from the header (see write_results_file)
  bool with_select = false;  // likewise
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      if (!line.empty() && line.find(":hw_valid") != std::string::npos) {
        with_hw = true;
      }
      if (!line.empty() && line.find("select:pick") != std::string::npos) {
        with_select = true;
      }
      continue;
    }
    std::istringstream fields(line);
    MeasurementRow row;
    fields >> row.group >> row.name >> row.rows >> row.cols >> row.nnz >>
        row.threads;
    for (std::size_t k = 0; k < study_orderings().size(); ++k) {
      OrderingMeasurement m;
      fields >> m.min_thread_nnz >> m.max_thread_nnz >> m.mean_thread_nnz >>
          m.imbalance >> m.seconds >> m.gflops_max >> m.gflops_mean >>
          m.bandwidth >> m.profile >> m.off_diagonal_nnz;
      if (with_hw) {
        int valid = 0;
        fields >> valid >> m.hw_ipc >> m.hw_llc_miss_rate >> m.hw_gbps >>
            m.hw_seconds;
        m.has_hw = valid != 0;
      }
      row.orderings.push_back(m);
    }
    if (with_select) {
      const auto kinds = study_orderings();
      auto ordering_index = [&](const std::string& name) {
        const OrderingKind kind = parse_ordering_name(name);
        for (std::size_t k = 0; k < kinds.size(); ++k) {
          if (kinds[k] == kind) return static_cast<int>(k);
        }
        throw invalid_argument_error(
            "read_results_file: ordering '" + name +
            "' is not a study ordering in " + path);
      };
      std::string pick_name;
      std::string oracle_name;
      fields >> pick_name >> oracle_name >> row.regret >>
          row.pick_net_seconds >> row.oracle_net_seconds >>
          row.pick_amortize_calls;
      if (!fields.fail()) {
        row.pick = ordering_index(pick_name);
        row.oracle = ordering_index(oracle_name);
        row.has_select = true;
      }
    }
    require(!fields.fail(), "read_results_file: malformed row in " + path);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string default_results_dir() {
  if (const char* dir = std::getenv("ORDO_RESULTS_DIR")) return dir;
  return "ordo_results";
}

StudyResults load_or_run_study(const std::string& dir,
                               const CorpusOptions& corpus_options,
                               const StudyOptions& options) {
  namespace fs = std::filesystem;
  const auto& machines = table2_architectures();
  const std::vector<SpmvKernel> kernels = study_kernels(options);

  bool all_cached = true;
  for (const Architecture& arch : machines) {
    for (const SpmvKernel& kernel : kernels) {
      if (!fs::exists(fs::path(dir) /
                      results_filename(kernel, arch, corpus_options.count))) {
        all_cached = false;
      }
    }
  }
  // A failures file vetoes the cache: the result files were written by a
  // run with missing matrices (a timed-out or failed task), and failures
  // are retried on resume — so fall through to the sweep, which replays the
  // journal and recomputes only the gaps.
  if (fs::exists(fs::path(options.checkpoint_dir.empty()
                              ? dir
                              : options.checkpoint_dir) /
                 pipeline::kFailuresFilename)) {
    all_cached = false;
  }

  StudyResults results;
  if (all_cached) {
    ORDO_SCOPE("study/load_cache");
    ORDO_COUNTER_ADD("study.cache_hits", 1);
    obs::logf(obs::LogLevel::kProgress, "loading cached study from %s",
              dir.c_str());
    for (const Architecture& arch : machines) {
      for (const SpmvKernel& kernel : kernels) {
        results[{arch.name, kernel}] = read_results_file(
            (fs::path(dir) / results_filename(kernel, arch,
                                              corpus_options.count))
                .string());
      }
    }
    // An --auto-order run over a cached sweep annotates the loaded rows (a
    // pure function of the row data — identical to what a fresh sweep
    // computes in-task) and rewrites the files so the pick / regret columns
    // land on disk. Unconditional so a changed budget or retrained model
    // always supersedes columns from an earlier annotation; the measurement
    // columns are untouched.
    if (options.auto_order) {
      annotate_study_with_selection(results, options);
      for (const Architecture& arch : machines) {
        for (const SpmvKernel& kernel : kernels) {
          write_results_file(
              (fs::path(dir) /
               results_filename(kernel, arch, corpus_options.count))
                  .string(),
              results.at({arch.name, kernel}));
        }
      }
      obs::logf(obs::LogLevel::kProgress,
                "auto-order: annotated cached study in %s", dir.c_str());
    }
    return results;
  }

  ORDO_COUNTER_ADD("study.cache_misses", 1);
  const std::vector<CorpusEntry> corpus = generate_corpus(corpus_options);

  // The sweep checkpoints into the cache dir (so an interrupted run resumes
  // there) and honours ORDO_JOBS, which lets every bench parallelise the
  // sweep without new flags — results are byte-identical for any job count.
  StudyOptions run_options = options;
  if (run_options.checkpoint_dir.empty()) {
    fs::create_directories(dir);
    run_options.checkpoint_dir = dir;
  }
  if (const char* jobs = std::getenv("ORDO_JOBS")) {
    run_options.jobs = parse_jobs(jobs, "ORDO_JOBS");
  }
  results = run_full_study(corpus, run_options);

  ORDO_SCOPE("study/write_cache");
  fs::create_directories(dir);
  for (const Architecture& arch : machines) {
    for (const SpmvKernel& kernel : kernels) {
      write_results_file(
          (fs::path(dir) /
           results_filename(kernel, arch, corpus_options.count))
              .string(),
          results.at({arch.name, kernel}));
    }
  }
  // The cache files supersede the journal; keep it for interrupted runs —
  // and for runs that left a failures file, whose next resume needs the
  // journal to recompute only the failed matrices.
  if (!fs::exists(fs::path(run_options.checkpoint_dir) /
                  pipeline::kFailuresFilename)) {
    std::error_code ignored;
    fs::remove(
        fs::path(run_options.checkpoint_dir) / pipeline::kJournalFilename,
        ignored);
  }
  obs::logf(obs::LogLevel::kProgress, "wrote study cache to %s", dir.c_str());
  return results;
}

}  // namespace ordo
