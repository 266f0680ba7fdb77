// Workloads `spmv_dram` and `spmv_cache`: the kernel layer. Setup builds
// seeded, relabelled matrices ("Original") and their reorderings; each rep
// runs both CSR kernels on every (matrix, ordering) through plans prepared
// cold, a fixed number of launches each.
//
//   spmv_dram   one 9-point mesh whose CSR arrays are over twice the LLC,
//               so the kernels stream from DRAM — the paper's regime. Its
//               stored order is shuffled within windows of 2^16 rows and
//               the kernels run on one thread. With a full shuffle the x
//               gathers lean on the shared LLC, and with four threads the
//               kernels lean on the shared memory bus; on a shared host
//               either moved the median rep by 38% between two sets of runs
//               of the same code. The run also measures one core's STREAM
//               peak, so achieved bandwidth is reported as a fraction of it.
//   spmv_cache  a smaller, fully shuffled mesh and an R-MAT graph that fit
//               between the per-core L2 and the LLC, at T threads: short,
//               cache-resident launches where fork/join cost and uneven
//               rows matter.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>

#include "corpus/generators.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "obs/hw/membw.hpp"
#include "obs/stopwatch.hpp"
#include "reorder/reordering.hpp"
#include "spmv/spmv.hpp"

namespace ordo_bench {
namespace {
using namespace ordo;

// Size in bytes of the largest (last-level) cache of CPU 0 from sysfs;
// 0 when sysfs does not say.
std::int64_t llc_bytes() {
  int best_level = 0;
  std::int64_t best_size = 0;
  const std::filesystem::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
    const std::string leaf = entry.path().filename().string();
    if (leaf.rfind("index", 0) != 0) continue;
    std::ifstream level_in(entry.path() / "level");
    std::ifstream size_in(entry.path() / "size");
    int level = 0;
    std::string size_text;
    if (!(level_in >> level) || !(size_in >> size_text) || size_text.empty()) {
      continue;
    }
    std::int64_t size = std::atoll(size_text.c_str());
    switch (size_text.back()) {
      case 'K': size <<= 10; break;
      case 'M': size <<= 20; break;
      case 'G': size <<= 30; break;
      default: break;
    }
    if (level > best_level || (level == best_level && size > best_size)) {
      best_level = level;
      best_size = size;
    }
  }
  return best_size;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

struct Input {
  std::string name;
  CsrMatrix matrix;
};

// One (matrix, ordering) the kernels run on, with x permuted to match so
// every variant computes the same product up to a row permutation.
struct Variant {
  std::string matrix;
  std::string ordering;
  Ordering permutation;
  CsrMatrix a;
  std::vector<value_t> x;
  int launches = 1;
};

// One (variant, kernel) timing series.
struct Combo {
  const Variant* variant = nullptr;
  std::string kernel;
  std::vector<value_t> y;
  std::vector<double> launch_seconds;  ///< per rep, all launches
};

struct Config {
  std::string workload;
  std::vector<Input> (*generate)(std::uint64_t seed, bool smoke);
  std::vector<OrderingKind> orderings;  ///< besides Original
  bool membw = false;
  /// Kernel threads; 0 = thread_cap().
  int threads = 0;
  /// Nonzeros one batch of launches covers: launches = ceil(this / nnz),
  /// at least 1. Short launches are batched so a timing is not dominated
  /// by the clock and the fork/join.
  double batch_nnz = 0.0;
};

// The structures are fixed and the seed draws the mesh's relabelling (and
// x): a seeded R-MAT structure moved the kernel time by 30% between seeds.
// The R-MAT graph keeps its generated labels, because GP's cost on it is
// bimodal — about 0.27 s or 1.3 s depending on the labelling and the
// partitioner seed — which would make setup_s a coin toss.
Input relabelled_mesh(index_t side, index_t window, std::uint64_t seed) {
  const CsrMatrix mesh = gen_mesh2d(side, side, 9);
  return {"mesh", permute_symmetric(
                      mesh, window_permutation(mesh.num_rows(), window, seed))};
}

std::vector<Input> dram_inputs(std::uint64_t seed, bool smoke) {
  return {relabelled_mesh(smoke ? 60 : 1450, 1 << 16, seed)};
}

std::vector<Input> cache_inputs(std::uint64_t seed, bool smoke) {
  const index_t side = smoke ? 40 : 400;
  return {relabelled_mesh(side, side * side, seed),
          {"rmat", gen_rmat(smoke ? 8 : 14, 8, 0.57, 0.19, 0.19, 2023)}};
}

// Bytes one launch must move at least once: the CSR arrays, x and y.
double compulsory_bytes(const CsrMatrix& a) {
  return static_cast<double>(a.storage_bytes()) +
         sizeof(value_t) * static_cast<double>(a.num_cols() + a.num_rows());
}

double relative_error(const std::vector<value_t>& y,
                      const std::vector<value_t>& ref) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, std::abs(y[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

RunResult run_spmv(const Args& args, const Config& config) {
  RunResult result;
  const int threads = config.threads > 0 ? config.threads : thread_cap();
  std::vector<Input> inputs;
  std::vector<Variant> variants;

  result.setup_seconds = repeat_setup([&] {
    variants.clear();
    inputs.clear();
    {
      obs::Span span("bench/generate");
      inputs = config.generate(args.seed, args.smoke);
    }
    for (const Input& input : inputs) {
      const CsrMatrix& a = input.matrix;
      obs::Span matrix_span("bench/matrix/" + input.name);
      std::mt19937_64 rng(args.seed ^ 0x5eedULL);
      std::uniform_real_distribution<value_t> uniform(-1.0, 1.0);
      std::vector<value_t> x(static_cast<std::size_t>(a.num_cols()));
      for (value_t& v : x) v = uniform(rng);

      Variant original;
      original.matrix = input.name;
      original.ordering = "Original";
      original.permutation.row_perm = identity_permutation(a.num_rows());
      original.permutation.col_perm = original.permutation.row_perm;
      original.a = a;
      original.x = x;
      variants.push_back(std::move(original));
      for (OrderingKind kind : config.orderings) {
        Variant v;
        v.matrix = input.name;
        v.ordering = ordering_name(kind);
        ReorderOptions options;  // default partitioner seed, see above
        options.gp_parts = threads;
        v.permutation = compute_ordering(a, kind, options);
        {
          obs::Span span("bench/apply");
          v.a = apply_ordering(a, v.permutation);
        }
        v.x.resize(x.size());
        for (std::size_t j = 0; j < x.size(); ++j) {
          v.x[j] = x[static_cast<std::size_t>(v.permutation.col_perm[j])];
        }
        variants.push_back(std::move(v));
      }
    }
    for (Variant& v : variants) {
      v.launches = std::max(1, static_cast<int>(std::ceil(
          config.batch_nnz / static_cast<double>(v.a.num_nonzeros()))));
    }
  });

  std::vector<Combo> combos;
  for (const Variant& v : variants) {
    for (const char* kernel : kSpmvKernels) {
      Combo combo;
      combo.variant = &v;
      combo.kernel = kernel;
      combo.y.assign(static_cast<std::size_t>(v.a.num_rows()), 0.0);
      combos.push_back(std::move(combo));
    }
  }

  // The host's STREAM peak, before and after the reps (best of the two, as
  // STREAM reports best of N), with arrays of at least four times the LLC.
  // Outside the reps: it is the host's number, not the program's.
  obs::hw::MembwOptions membw;
  membw.threads = threads;
  membw.reps = 1;
  const std::int64_t llc = llc_bytes();
  membw.array_bytes = args.smoke ? (std::size_t{8} << 20)
                                 : static_cast<std::size_t>(std::max<std::int64_t>(
                                       4 * llc, std::int64_t{256} << 20));
  double peak_gbps = 0.0;
  auto measure_peak = [&] {
    if (!config.membw) return;
    peak_gbps = std::max(peak_gbps, obs::hw::measure_membw(membw).peak_gbps);
  };

  measure_peak();
  // The first rep is the traced pass.
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  measure_reps(args.seconds, [&] {
    const bool first = result.rep_seconds.empty();
    if (first) begin_us = obs::trace_now_us();
    engine::plan_cache().clear();
    double seconds = 0.0;
    std::size_t c = 0;
    while (c < combos.size()) {
      const std::string& matrix = combos[c].variant->matrix;
      obs::Span matrix_span("bench/matrix/" + matrix);
      for (; c < combos.size() && combos[c].variant->matrix == matrix; ++c) {
        Combo& combo = combos[c];
        const Variant& v = *combo.variant;
        ++result.attempted;
        try {
          ordo::obs::Stopwatch prepare;
          std::shared_ptr<const engine::Plan> plan;
          {
            obs::Span span("bench/prepare_plan");
            plan = engine::prepare_plan(v.a, combo.kernel, threads);
          }
          const double prepare_seconds = prepare.seconds();
          ordo::obs::Stopwatch launches;
          {
            obs::Span span("bench/spmv/" + combo.kernel + "/" + v.ordering);
            for (int l = 0; l < v.launches; ++l) {
              engine::spmv(*plan, v.a, v.x, combo.y);
            }
          }
          const double launch_seconds = launches.seconds();
          combo.launch_seconds.push_back(launch_seconds);
          seconds += prepare_seconds + launch_seconds;
        } catch (const std::exception& e) {
          ++result.failed;
          result.fail(config.workload + ": " + combo.kernel + " on " + matrix +
                      "/" + v.ordering + " threw: " + e.what());
        }
      }
    }
    if (first) end_us = obs::trace_now_us();
    return seconds;
  }, result);
  measure_peak();
  add_end_to_end(result, static_cast<int>(inputs.size()));
  result.info.push_back({"host.llc_mib", static_cast<double>(llc) / (1 << 20),
                         "MiB"});
  if (config.membw) {
    result.info.push_back(
        {"membw.array_mib", static_cast<double>(membw.array_bytes) / (1 << 20),
         "MiB"});
    result.info.push_back({"membw.peak_gbps", peak_gbps, "GB/s"});
  }

  // Correctness: each variant's serial product is the original's, permuted;
  // each kernel's output (its last launch) matches the serial product.
  for (const Input& input : inputs) {
    const Variant* original = nullptr;
    for (const Variant& v : variants) {
      if (v.matrix == input.name && v.ordering == "Original") original = &v;
    }
    std::vector<value_t> y_original(
        static_cast<std::size_t>(input.matrix.num_rows()));
    spmv_serial(original->a, original->x, y_original);
    for (const Variant& v : variants) {
      if (v.matrix != input.name) continue;
      if (!is_valid_permutation(v.permutation.row_perm) ||
          !is_valid_permutation(v.permutation.col_perm)) {
        result.fail(config.workload + ": " + v.ordering + " on " + v.matrix +
                    " is not a valid permutation");
        continue;
      }
      std::vector<value_t> ref(static_cast<std::size_t>(v.a.num_rows()));
      spmv_serial(v.a, v.x, ref);
      std::vector<value_t> expected(ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expected[i] =
            y_original[static_cast<std::size_t>(v.permutation.row_perm[i])];
      }
      if (relative_error(ref, expected) > 1e-12) {
        result.fail(config.workload + ": " + v.ordering + " on " + v.matrix +
                    " changes the product beyond a row permutation");
      }
      for (const Combo& combo : combos) {
        if (combo.variant != &v) continue;
        if (relative_error(combo.y, ref) > 1e-12) {
          result.fail(config.workload + ": " + combo.kernel + " on " +
                      v.matrix + "/" + v.ordering +
                      " differs from spmv_serial by more than 1e-12");
        }
      }
    }
  }

  if (obs::tracing_enabled()) {
    NnzByMatrix nnz;
    for (const Input& input : inputs) {
      nnz[input.name] = static_cast<double>(input.matrix.num_nonzeros());
    }
    add_common_layers(result, nnz, begin_us, end_us);
    const int n = static_cast<int>(result.rep_seconds.size());
    // Median launch time per combination; bandwidth is the computed bytes
    // moved over the host's peak, 0 where the workload measures no peak.
    auto gflops = [](const Combo& c) {
      return 2.0 * static_cast<double>(c.variant->a.num_nonzeros()) *
             c.variant->launches / median_of(c.launch_seconds) / 1e9;
    };
    auto bw_frac = [&](const Combo& c) {
      return peak_gbps > 0.0 ? compulsory_bytes(c.variant->a) *
                                   c.variant->launches /
                                   median_of(c.launch_seconds) / 1e9 / peak_gbps
                             : 0.0;
    };
    std::vector<double> all_gflops, all_bw, gains;
    double bytes = 0.0;
    for (const Combo& c : combos) {
      all_gflops.push_back(gflops(c));
      all_bw.push_back(bw_frac(c));
      bytes += compulsory_bytes(c.variant->a);
    }
    for (const char* kernel : kSpmvKernels) {
      for (const Input& input : inputs) {
        double original = 0.0;
        double best = 0.0;
        for (const Combo& c : combos) {
          if (c.kernel != kernel || c.variant->matrix != input.name) continue;
          if (c.variant->ordering == "Original") original = gflops(c);
          best = std::max(best, gflops(c));
        }
        gains.push_back(best / original);
      }
      for (const char* ordering : kSpmvOrderings) {
        std::vector<double> rate, bandwidth;
        for (const Combo& c : combos) {
          if (c.kernel != kernel || c.variant->ordering != ordering) continue;
          rate.push_back(gflops(c));
          bandwidth.push_back(bw_frac(c));
        }
        set_layer(result, spmv_metric(kernel, ordering, "gflops"),
                  geomean(rate), n);
        if (config.membw && !bandwidth.empty()) {
          set_layer(result, spmv_metric(kernel, ordering, "bw_frac"),
                    geomean(bandwidth), n);
        }
      }
    }
    set_layer(result, "spmv.gflops", geomean(all_gflops), n);
    set_layer(result, "spmv.bw_frac", geomean(all_bw), n);
    set_layer(result, "spmv.reorder_gain", geomean(gains), n);
    set_layer(result, "spmv.bytes_per_launch",
              bytes / static_cast<double>(combos.size()));
    set_layer(result, "engine.prepare_plan_per_s",
              spans_per_second(
                  spans_named(collect_ledger(), "bench/prepare_plan")));
    set_layer(result, "engine.plan_cache_hit_ratio",
              engine::plan_cache().stats().hit_rate());
    set_layer(result, "membw.peak_gbps", peak_gbps);
  }
  return result;
}

}  // namespace

RunResult run_spmv_dram(const Args& args) {
  return run_spmv(args, {"spmv_dram", dram_inputs,
                         {OrderingKind::kRcm, OrderingKind::kGray},
                         /*membw=*/true, /*threads=*/1, /*batch_nnz=*/0.0});
}

RunResult run_spmv_cache(const Args& args) {
  return run_spmv(args, {"spmv_cache", cache_inputs,
                         {OrderingKind::kRcm, OrderingKind::kGp,
                          OrderingKind::kGray},
                         /*membw=*/false, /*threads=*/0,
                         /*batch_nnz=*/4.0e7});
}

}  // namespace ordo_bench
