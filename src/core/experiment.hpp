// The experiment pipeline of the study: apply the seven orderings to every
// corpus matrix and record simulated SpMV measurements for both kernels on
// all eight machines, in the same per-(machine, kernel) tabular layout as
// the paper's published artifact (one row per matrix; 5 matrix columns, the
// thread count, then 7 columns for each of the 7 orderings = 54 columns).
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "perfmodel/spmv_model.hpp"
#include "reorder/reordering.hpp"

namespace ordo {

/// The artifact's seven per-ordering columns, extended with the three
/// order-sensitive features of Section 3.2 (bandwidth, profile and the
/// off-diagonal nonzero count under a threads×threads blocking) that Fig. 5
/// correlates with SpMV runtime.
struct OrderingMeasurement {
  std::int64_t min_thread_nnz = 0;
  std::int64_t max_thread_nnz = 0;
  double mean_thread_nnz = 0.0;
  double imbalance = 1.0;
  double seconds = 0.0;
  double gflops_max = 0.0;
  double gflops_mean = 0.0;
  std::int64_t bandwidth = 0;
  std::int64_t profile = 0;
  std::int64_t off_diagonal_nnz = 0;

  // --- host-measured hardware-counter columns (StudyOptions::hw_counters) ---
  // The model columns above price the paper's eight machines; these record
  // what *this* host actually did while executing the kernel on the
  // reordered matrix (obs/hw/hw_counters.hpp). has_hw stays false when the
  // counter session is off or the perf backend is unavailable, so absent
  // counters are reported as absent rather than as zeros.
  bool has_hw = false;
  double hw_ipc = 0.0;            ///< instructions per cycle
  double hw_llc_miss_rate = 0.0;  ///< LLC misses / LLC references
  double hw_gbps = 0.0;           ///< estimated DRAM traffic / measured time
  double hw_seconds = 0.0;        ///< measured host wall time per SpMV rep
};

/// One matrix's measurements on one (machine, kernel) pair.
struct MeasurementRow {
  std::string group;
  std::string name;
  index_t rows = 0;
  index_t cols = 0;
  std::int64_t nnz = 0;
  int threads = 0;
  /// Indexed like study_orderings(): Original, RCM, AMD, ND, GP, HP, Gray.
  std::vector<OrderingMeasurement> orderings;

  // --- learned-selector columns (StudyOptions::auto_order) ---
  // Attached by src/core/auto_order.{hpp,cpp}: the selector's pick from the
  // Original-ordering features alone, the oracle ordering under the same
  // net-time objective, and the realized regret. Net times are per-call
  // seconds including the committed reorder-cost model amortized over the
  // run's SpMV budget. has_select stays false in default sweeps, so legacy
  // result files keep the artifact's exact column layout.
  bool has_select = false;
  int pick = 0;    ///< index into study_orderings()
  int oracle = 0;  ///< argmin over the realized net times
  double regret = 0.0;  ///< pick_net / oracle_net - 1; >= 0 by construction
  double pick_net_seconds = 0.0;
  double oracle_net_seconds = 0.0;
  /// SpMV calls until the pick's reorder cost is recovered vs Original;
  /// 0 when the pick is Original, select::kNeverAmortizes (-1) when the
  /// pick never beats Original per call.
  double pick_amortize_calls = 0.0;
};

/// SpMV speedups over the original ordering for the six reorderings of
/// Table 1 (order: RCM, AMD, ND, GP, HP, Gray), from gflops_max.
std::vector<double> reordering_speedups(const MeasurementRow& row);

struct StudyOptions {
  ModelOptions model;
  ReorderOptions reorder;  ///< gp_parts is overridden per machine core count
  /// Legacy progress flag: raises the obs logging sink to at least
  /// `progress` for the run (equivalent to ORDO_LOG=progress; see
  /// obs/log.hpp for the structured levels).
  bool verbose = false;

  // --- pipeline scheduling (see src/pipeline/study_pipeline.hpp) ---
  /// Worker threads for the per-matrix sweep. 1 = the sequential path
  /// (tasks run inline on the calling thread); 0 = one per CPU in the
  /// affinity mask (obs::affinity_cpu_count).
  /// Results are byte-identical for every value.
  int jobs = 1;
  /// Soft per-task deadline in seconds; 0 disables it. A task past its
  /// deadline is cancelled cooperatively (at the next ordering/bisection/
  /// separator-level boundary) and recorded as a timed-out failure.
  double task_timeout_seconds = 0.0;
  /// Directory for the checkpoint journal (one JSON line per completed
  /// matrix). Empty disables checkpointing. load_or_run_study points this
  /// at its cache dir so an interrupted sweep resumes where it stopped.
  std::string checkpoint_dir;
  /// When a checkpoint journal for the same corpus and options exists,
  /// replay it instead of recomputing those matrices.
  bool resume = true;

  // --- kernel set (see src/engine/) ---
  /// Engine kernel ids swept in addition to the studied 1D/2D pair (the
  /// pair is always included; duplicates are ignored). Each id must name a
  /// registered kernel whose capabilities admit the study corpus — see
  /// study_kernels().
  std::vector<std::string> kernels;
  /// Permit kernels whose descriptor declares deterministic = false (the
  /// atomic-scatter transpose kernel) in checkpointed sweeps. Off by
  /// default: nondeterministic float summation breaks the journal's
  /// byte-identical resume guarantee, so the pipeline refuses such kernels
  /// unless this is set (--allow-nondeterministic in run_study).
  bool allow_nondeterministic = false;

  // --- hardware counters (see src/obs/hw/) ---
  /// Execute every (kernel, reordered matrix) pair on the host inside a
  /// hardware-counter scope and attach derived metrics (IPC, LLC miss rate,
  /// achieved GB/s) to the result rows. Requires the obs::hw session to be
  /// enabled (ORDO_HW=1 or --hw); degrades to has_hw=false rows when the
  /// perf backend is unavailable. The host columns are excluded from the
  /// checkpoint journal's byte-identical resume guarantee only in the sense
  /// that the journal fingerprint includes the hw configuration, so mixing
  /// hw and non-hw runs never replays stale rows.
  bool hw_counters = false;

  // --- learned ordering selector (see src/select/ and core/auto_order.hpp) ---
  /// Run the selector over every finished row and attach pick / oracle /
  /// regret columns (run_study --auto-order). Fully deterministic: the
  /// selector reads committed model tables and the reorder cost is a
  /// committed model, never a wall clock, so annotated results stay
  /// byte-identical across --jobs values and resume. The journal fingerprint
  /// includes this flag, the budget, and the model fingerprint.
  bool auto_order = false;
  /// N in "does the reordering pay off within N SpMV calls?" — the budget
  /// the one-off reorder cost is amortized over in every net-time column
  /// (run_study --spmv-budget). Must match select::SelectorOptions default.
  double spmv_budget = 10000.0;
};

/// The resolved kernel set of a sweep: the studied pair (always first, in
/// study order) followed by options.kernels, deduplicated. Throws
/// invalid_argument_error for unknown ids and for kernels whose
/// capabilities the corpus cannot satisfy (needs_symmetric — the corpus
/// stores matrices in full).
std::vector<SpmvKernel> study_kernels(const StudyOptions& options);

/// Results of the full sweep: rows[(machine name, kernel)] -> per-matrix rows.
using StudyResults =
    std::map<std::pair<std::string, SpmvKernel>, std::vector<MeasurementRow>>;

/// One matrix's rows for every (machine, kernel) pair — the unit of work the
/// pipeline scheduler executes. Exposed so the scheduler and the sequential
/// path share one implementation.
using MatrixStudyRows =
    std::map<std::pair<std::string, SpmvKernel>, MeasurementRow>;

/// Runs the complete study of a single matrix: the arch-independent
/// orderings once, the GP ordering once per distinct core count (the paper
/// matches GP's part count to the machine), order-sensitive features, and
/// the performance model for every (machine, kernel). Honours
/// options.reorder.cancel at every phase boundary (and, through it, inside
/// the ND/GP/HP recursions).
MatrixStudyRows run_matrix_study(const CorpusEntry& entry,
                                 const StudyOptions& options);

/// Parses a `--jobs` or ORDO_JOBS value (StudyOptions::jobs): a whole
/// number >= 0 (0 = one per CPU), else throws invalid_argument_error naming
/// `source`.
int parse_jobs(const std::string& text, const std::string& source);

/// Runs the full study over the corpus on the pipeline scheduler
/// (options.jobs workers, per-task error isolation, optional soft deadlines
/// and checkpoint journal — see src/pipeline/). Failed matrices are logged,
/// counted in the `pipeline.tasks.failed` metric, and skipped; use
/// pipeline::run_study_pipeline directly for the structured failure rows.
/// Row order is the corpus order regardless of jobs.
StudyResults run_full_study(const std::vector<CorpusEntry>& corpus,
                            const StudyOptions& options);

/// Artifact-style result file name, e.g. "csr_1d_milan_b_128_threads_ss490.txt"
/// (the sanitized kernel id, so the studied pair keeps the artifact's exact
/// names and extra kernels get their own files, e.g. "merge_...").
std::string results_filename(const SpmvKernel& kernel, const Architecture& arch,
                             int corpus_count);

/// Writes rows in the artifact's whitespace-separated 54-column format.
void write_results_file(const std::string& path,
                        const std::vector<MeasurementRow>& rows);

/// Reads a results file written by write_results_file.
std::vector<MeasurementRow> read_results_file(const std::string& path);

/// Loads the study from cache files in `dir` when all 16 files exist;
/// otherwise generates the corpus, runs the study, and writes the cache.
/// This is what lets every figure/table bench share one sweep. The cache
/// key includes the corpus count, so changing ORDO_CORPUS_COUNT reruns.
StudyResults load_or_run_study(const std::string& dir,
                               const CorpusOptions& corpus_options,
                               const StudyOptions& options);

/// Default cache directory: $ORDO_RESULTS_DIR or "ordo_results".
std::string default_results_dir();

}  // namespace ordo
