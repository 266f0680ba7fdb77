// Workload `reorder_cold`: Table 5. Each rep computes and applies each of
// the six Table 1 orderings once, cold and serially, on the named
// stand-ins of the paper's largest matrices, with GP at 72 parts. This is
// the single-k reorder cost the amortization analysis and the selector's
// cost curves use: there is no cross-k reuse and no model here, so a sweep
// optimization that shares GP work across part counts shows no change,
// while a faster partitioner shows in both this workload and `sweep`.
#include "corpus/corpus.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "obs/stopwatch.hpp"
#include "reorder/reordering.hpp"

namespace ordo_bench {
namespace {
using namespace ordo;

// The ten matrices of Table 5.
const std::vector<std::string> kTable5 = {
    "delaunay_n24",   "europe_osm", "Flan_1565",        "HV15R",
    "indochina-2004", "kmer_V1r",   "kron_g500-logn21", "mycielskian19",
    "nlpkkt240",      "vas_stokes_4M"};

constexpr index_t kGpParts = 72;  // Ice Lake's core count, as in Table 5
constexpr index_t kHpParts = 128;

bool ordering_is_valid(const CsrMatrix& a, const Ordering& ordering,
                       const CsrMatrix& reordered) {
  return static_cast<index_t>(ordering.row_perm.size()) == a.num_rows() &&
         static_cast<index_t>(ordering.col_perm.size()) == a.num_cols() &&
         is_valid_permutation(ordering.row_perm) &&
         is_valid_permutation(ordering.col_perm) &&
         reordered.num_nonzeros() == a.num_nonzeros();
}

}  // namespace

RunResult run_reorder_cold(const Args& args) {
  RunResult result;
  const double scale = args.smoke ? 0.02 : 0.05;
  const std::vector<std::string> names(
      kTable5.begin(), kTable5.begin() + (args.smoke ? 3 : kTable5.size()));

  std::vector<CorpusEntry> entries;
  result.setup_seconds = repeat_setup([&] {
    entries.clear();
    obs::Span span("bench/generate");
    for (const std::string& name : names) {
      entries.push_back(generate_named(name, scale));
    }
  });

  ReorderOptions options;
  options.gp_parts = kGpParts;
  options.hp_parts = kHpParts;
  options.seed = args.seed;
  // The first rep is the traced pass.
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;

  measure_reps(args.seconds, [&] {
    const bool first = result.rep_seconds.empty();
    if (first) begin_us = obs::trace_now_us();
    double seconds = 0.0;
    for (const CorpusEntry& entry : entries) {
      obs::Span matrix_span("bench/matrix/" + entry.name);
      for (OrderingKind kind : table1_orderings()) {
        ++result.attempted;
        try {
          ordo::obs::Stopwatch watch;
          const Ordering ordering =
              compute_ordering(entry.matrix, kind, options);
          CsrMatrix reordered;
          {
            obs::Span span("bench/apply");
            reordered = apply_ordering(entry.matrix, ordering);
          }
          seconds += watch.seconds();
          if (!ordering_is_valid(entry.matrix, ordering, reordered)) {
            result.fail("reorder_cold: " + ordering_name(kind) + " on " +
                        entry.name + " is not a valid permutation");
          }
        } catch (const std::exception& e) {
          ++result.failed;
          result.fail("reorder_cold: " + ordering_name(kind) + " on " +
                      entry.name + " threw: " + e.what());
        }
      }
    }
    if (first) end_us = obs::trace_now_us();
    return seconds;
  }, result);
  add_end_to_end(result, static_cast<int>(entries.size()));

  if (obs::tracing_enabled()) {
    // Probe call: the graph build GP sits on, timed on its own.
    for (const CorpusEntry& entry : entries) {
      obs::Span matrix_span("bench/matrix/" + entry.name);
      obs::Span span("bench/graph_from_matrix");
      [[maybe_unused]] const Graph graph = Graph::from_matrix(entry.matrix);
    }
    NnzByMatrix nnz;
    for (const CorpusEntry& entry : entries) {
      nnz[entry.name] = static_cast<double>(entry.matrix.num_nonzeros());
    }
    add_common_layers(result, nnz, begin_us, end_us);
    const std::vector<LedgerSpan> spans = collect_ledger();
    // Every GP call here is the 72-way one.
    set_layer(result, "reorder.GP.k72.mnnz_per_s",
              mnnz_per_second(spans_named(spans, "reorder/GP"), nnz));
    set_layer(result, "graph.from_matrix.mnnz_per_s",
              mnnz_per_second(spans_named(spans, "bench/graph_from_matrix"),
                              nnz));
  }
  return result;
}

}  // namespace ordo_bench
