// Workload `sweep`: the paper's study itself, cold. Each rep runs the
// scheduled study pipeline over a generated corpus (T jobs, checkpointing
// into a fresh directory) and writes every result table. Partitioners
// dominate its time, so GP and HP work shows here.
//
// The traced run adds one serial call of the same pipeline (jobs = 1), with
// the library's spans recorded; the per-layer metrics come from those spans.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "corpus/corpus.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "obs/stopwatch.hpp"
#include "perfmodel/arch.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/study_pipeline.hpp"

namespace ordo_bench {
namespace {
namespace fs = std::filesystem;
using namespace ordo;

// Scratch directory for this run next to the binary, i.e. inside the build
// tree of the checkout, created empty.
std::string scratch_dir() {
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  const fs::path dir = exe.parent_path() / "scratch" /
                       ("sweep-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// FNV-1a over a byte string, chained from `hash`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

CorpusOptions corpus_shape(const Args& args) {
  CorpusOptions options;
  options.count = args.smoke ? 6 : 48;
  options.scale = args.smoke ? 0.05 : 0.1;
  return options;
}

// The corpus shape (families and sizes, from the study's default master
// seed) is the same for every --seed, so every seed asks for the same
// amount of work: drawing sizes per seed moved a rep's time by 2x. The
// seed instead relabels each matrix's rows within windows of 16, which
// changes every stored order, and so every result, but no structure.
std::vector<CorpusEntry> generate_inputs(const CorpusOptions& shape,
                                         std::uint64_t seed) {
  std::vector<CorpusEntry> corpus = generate_corpus(shape);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    CsrMatrix& a = corpus[i].matrix;
    a = permute_symmetric(
        a, window_permutation(a.num_rows(), 16,
                              seed * 0x9e3779b97f4a7c15ULL + i));
  }
  return corpus;
}

// Writes every (machine, kernel) table of `results` into `dir`, in table
// order, and returns the files' paths.
std::vector<std::string> write_tables(const StudyResults& results,
                                      const StudyOptions& options,
                                      const std::string& dir, int count) {
  std::vector<std::string> paths;
  for (const Architecture& arch : table2_architectures()) {
    for (const SpmvKernel& kernel : study_kernels(options)) {
      paths.push_back(
          (fs::path(dir) / results_filename(kernel, arch, count)).string());
      write_results_file(paths.back(), results.at({arch.name, kernel}));
    }
  }
  return paths;
}

// FNV-1a digest of the files' bytes, in order, and their total size.
std::pair<std::uint64_t, double> digest_files(
    const std::vector<std::string>& paths) {
  std::uint64_t digest = fnv1a("");
  double bytes = 0.0;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    digest = fnv1a(content.str(), digest);
    bytes += static_cast<double>(content.str().size());
  }
  return {digest, bytes};
}

// Per-layer metrics of the serial pass that only `sweep` has.
void add_sweep_layers(RunResult& result, const NnzByMatrix& nnz) {
  // run_matrix_study computes GP once per distinct core count, in the order
  // the machines first name them, so a matrix's i-th GP span is the i-th
  // distinct count. If any matrix computed a different number of GP
  // orderings, the per-k rates are left at 0.
  std::vector<int> cores;
  for (const Architecture& arch : table2_architectures()) {
    if (std::find(cores.begin(), cores.end(), arch.cores) == cores.end()) {
      cores.push_back(arch.cores);
    }
  }
  std::map<int, std::vector<LedgerSpan>> gp_by_k;
  std::map<std::string, std::size_t> gp_seen;
  bool one_per_k = true;
  for (const LedgerSpan& span : spans_named(result.pass, "reorder/GP")) {
    const std::size_t i = gp_seen[span.matrix]++;
    if (i >= cores.size()) {
      one_per_k = false;
      break;
    }
    gp_by_k[cores[i]].push_back(span);
  }
  for (const auto& [matrix, seen] : gp_seen) {
    one_per_k = one_per_k && seen == cores.size();
  }
  if (one_per_k) {
    for (const auto& [k, spans] : gp_by_k) {
      set_layer(result, "reorder.GP.k" + std::to_string(k) + ".mnnz_per_s",
                mnnz_per_second(spans, nnz));
    }
  }

  // One "model/<machine>/<kernel>" span per study row: the plans and model
  // estimates of its seven orderings.
  std::vector<LedgerSpan> rows;
  std::vector<LedgerSpan> matrices;
  for (const LedgerSpan& span : result.pass) {
    if (span.event.name.rfind("model/", 0) == 0 &&
        span.event.name != "model/reuse_profile") {
      rows.push_back(span);
    }
    if (span.is_matrix) matrices.push_back(span);
  }
  set_layer(result, "perfmodel.evaluate_per_s", spans_per_second(rows));
  // run_matrix_study's own work outside any library span: applying the
  // orderings, the order features and the result checks.
  set_layer(result, "study.matrix_self.mnnz_per_s",
            mnnz_per_second(matrices, nnz, /*self=*/true));
}

}  // namespace

RunResult run_sweep(const Args& args) {
  RunResult result;
  const int threads = thread_cap();
  const CorpusOptions shape = corpus_shape(args);
  const std::string scratch = scratch_dir();
  const bool traced = obs::tracing_enabled();

  std::vector<CorpusEntry> corpus;
  result.setup_seconds = repeat_setup([&] {
    corpus.clear();
    obs::Span span("bench/generate");
    corpus = generate_inputs(shape, args.seed);
  });

  StudyOptions options;
  options.jobs = threads;
  std::string rep_dir;  // the last rep's checkpoint and result files
  std::vector<double> pipeline_seconds;

  // The timed reps record no spans: the per-layer rates come from the
  // serial pass below, not from calls sharing the cores with each other.
  obs::set_tracing_enabled(false);
  measure_reps(args.seconds, [&] {
    if (!rep_dir.empty()) fs::remove_all(rep_dir);
    rep_dir = (fs::path(scratch) /
               ("rep" + std::to_string(pipeline_seconds.size())))
                  .string();
    engine::plan_cache().clear();
    StudyOptions rep_options = options;
    rep_options.checkpoint_dir = rep_dir;

    ordo::obs::Stopwatch watch;
    const pipeline::StudyReport report =
        pipeline::run_study_pipeline(corpus, rep_options);
    pipeline_seconds.push_back(watch.seconds());
    const std::vector<std::string> paths =
        write_tables(report.results, options, rep_dir, shape.count);
    const double seconds = watch.seconds();

    result.attempted += static_cast<long long>(corpus.size());
    result.failed += static_cast<long long>(report.failures.size());
    for (const pipeline::StudyTaskFailure& failure : report.failures) {
      result.fail("sweep: matrix " + failure.name + " failed: " +
                  failure.error);
    }
    const std::uint64_t digest = digest_files(paths).first;
    if (result.rep_seconds.empty()) {
      result.digest = digest;
    } else if (digest != result.digest) {
      result.fail("sweep: result files differ between reps");
    }
    return seconds;
  }, result);
  add_end_to_end(result, shape.count);
  if (!traced) {
    fs::remove_all(scratch);
    return result;
  }

  obs::set_tracing_enabled(true);
  const std::string pass_dir = (fs::path(scratch) / "serial").string();
  StudyOptions serial = options;
  serial.jobs = 1;
  serial.checkpoint_dir = pass_dir;
  engine::plan_cache().clear();
  const std::int64_t begin_us = obs::trace_now_us();
  const pipeline::StudyReport report =
      pipeline::run_study_pipeline(corpus, serial);
  const std::int64_t end_us = obs::trace_now_us();
  const engine::PlanCache::Stats stats = engine::plan_cache().stats();
  for (const pipeline::StudyTaskFailure& failure : report.failures) {
    result.fail("sweep: serial pass: matrix " + failure.name + " failed: " +
                failure.error);
  }

  ordo::obs::Stopwatch io_watch;
  const std::vector<std::string> paths =
      write_tables(report.results, options, pass_dir, shape.count);
  const double io_seconds = io_watch.seconds();
  const auto [digest, bytes] = digest_files(paths);
  if (digest != result.digest) {
    result.fail("sweep: the serial pass's result files differ from the "
                "parallel reps'");
  }

  ordo::obs::Stopwatch journal_watch;
  const auto records = pipeline::load_journal(
      (fs::path(pass_dir) / pipeline::kJournalFilename).string(),
      pipeline::make_journal_key(corpus, options));
  const double journal_seconds = journal_watch.seconds();
  if (static_cast<int>(records.size()) != shape.count) {
    result.fail("sweep: journal replays " + std::to_string(records.size()) +
                " of " + std::to_string(shape.count) + " matrices");
  }

  NnzByMatrix nnz;
  for (const CorpusEntry& entry : corpus) {
    nnz[entry.name] = static_cast<double>(entry.matrix.num_nonzeros());
  }
  add_common_layers(result, nnz, begin_us, end_us);
  add_sweep_layers(result, nnz);
  set_layer(result, "engine.plan_cache_hit_ratio", stats.hit_rate());
  set_layer(result, "pipeline.load_journal.records_per_s",
            static_cast<double>(records.size()) / journal_seconds);
  set_layer(result, "core.results_io.mb_per_s", bytes / io_seconds * 1e-6);
  set_layer(result, "pipeline.parallel_efficiency",
            static_cast<double>(end_us - begin_us) * 1e-6 /
                (threads * median_of(pipeline_seconds)),
            static_cast<int>(pipeline_seconds.size()));
  fs::remove_all(scratch);
  return result;
}

}  // namespace ordo_bench
