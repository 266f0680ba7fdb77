#include "corpus/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>

#include "obs/obs.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/permutation.hpp"

namespace ordo {
namespace {

index_t side_for(double target_nnz, double nnz_per_node, int dims) {
  const double nodes = std::max(16.0, target_nnz / nnz_per_node);
  return std::max<index_t>(
      2, static_cast<index_t>(std::round(std::pow(nodes, 1.0 / dims))));
}

// Symmetric permutation that shuffles indices only within windows of the
// given size: window >= n degenerates to a full shuffle, small windows leave
// locality almost intact. Drawing the window log-uniformly gives the corpus
// the full spectrum of "how badly is this matrix ordered" that the real
// collection has — most matrices arrive in moderately good application
// order, some in excellent order, a few in essentially random order.
CsrMatrix window_shuffle(const CsrMatrix& a, index_t window,
                         std::uint64_t seed) {
  const index_t n = a.num_rows();
  Permutation perm = identity_permutation(n);
  std::mt19937_64 rng(seed ^ 0x517bd05eULL);
  for (index_t begin = 0; begin < n; begin += window) {
    const index_t end = std::min<index_t>(begin + window, n);
    std::shuffle(perm.begin() + begin, perm.begin() + end, rng);
  }
  return permute_symmetric(a, perm);
}

// Adds `extra` symmetric long-range entries to about `row_fraction` of the
// rows, giving uniform-stencil matrices the heterogeneous row lengths real
// collection matrices have. The heavy rows are drawn from a *contiguous
// band* of the stored order, not uniformly: in real matrices the heavy rows
// cluster (constraint blocks appended at the end, hub vertices in one id
// range), which is what makes the original order load-imbalanced under the
// 1D row split and gives reordering its balance-repairing role (Section 4.4
// classes 2-3).
CsrMatrix sprinkle(const CsrMatrix& a, double row_fraction, int extra,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eed5eed5eedULL);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<index_t> any(0, a.num_rows() - 1);
  const index_t band_rows = std::max<index_t>(
      1, static_cast<index_t>(row_fraction * a.num_rows()));
  const index_t band_begin =
      any(rng) % std::max<index_t>(1, a.num_rows() - band_rows + 1);
  // Half of the sprinkled matrices cluster their heavy rows in one band,
  // half spread them uniformly — both patterns occur in the collection.
  const bool banded = (seed & 1) == 0;
  CooMatrix coo(a.num_rows(), a.num_cols());
  for (index_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(i, cols[k], vals[k]);
    }
    const bool in_band = i >= band_begin && i < band_begin + band_rows;
    const bool hit = banded ? (in_band && uniform(rng) < 0.8)
                            : uniform(rng) < row_fraction;
    if (hit) {
      const int count = 1 + static_cast<int>(rng() % static_cast<unsigned>(extra));
      for (int e = 0; e < count; ++e) {
        const index_t j = any(rng);
        if (j != i) coo.add_symmetric(i, j, -0.01);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

}  // namespace

CorpusOptions corpus_options_from_env() {
  CorpusOptions options;
  if (const char* count = std::getenv("ORDO_CORPUS_COUNT")) {
    options.count = parse_whole_number<int>(count, "ORDO_CORPUS_COUNT", 1);
  }
  if (const char* scale = std::getenv("ORDO_CORPUS_SCALE")) {
    options.scale =
        std::max(0.01, parse_real_number(scale, "ORDO_CORPUS_SCALE", 0.0));
  }
  return options;
}

std::vector<CorpusEntry> generate_corpus(const CorpusOptions& options) {
  ORDO_SCOPE("corpus/generate");
  ORDO_COUNTER_ADD("corpus.generations", 1);
  obs::logf(obs::LogLevel::kProgress,
            "generating corpus: %d matrices (scale %.2f)", options.count,
            options.scale);
  std::vector<CorpusEntry> corpus;
  corpus.reserve(static_cast<std::size_t>(options.count));
  std::mt19937_64 rng(options.seed);
  // Log-uniform target nonzero counts, 2e3..6e5 at scale 1 (a handful of
  // entries exceed the scaled LLC, matching the paper's 77-of-490 ratio).
  std::uniform_real_distribution<double> log_nnz(std::log(2.0e3),
                                                 std::log(6.0e5));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  // Family mix approximating the collection's composition among matrices
  // with 1e6..1e9 nonzeros.
  struct FamilySlot {
    const char* group;
    int weight;
    bool spd;
  };
  const std::vector<FamilySlot> families = {
      {"mesh2d", 9, true},     {"mesh3d", 8, true},
      {"fem", 8, true},        {"geometric", 5, true},
      {"circuit", 7, false},   {"cfd", 6, false},
      {"road", 4, true},       {"rmat", 6, true},
      {"community", 5, true},  {"debruijn", 3, true},
      {"kkt", 4, false},       {"banded", 4, true},
      {"blockdiag", 3, true},  {"random", 4, false},
  };
  std::vector<const FamilySlot*> wheel;
  for (const FamilySlot& f : families) {
    for (int w = 0; w < f.weight; ++w) wheel.push_back(&f);
  }

  for (int i = 0; i < options.count; ++i) {
    // Stride through the weighted wheel with a coprime step so that any
    // prefix of the corpus (small ORDO_CORPUS_COUNT runs) already mixes all
    // families instead of consuming them block by block.
    const FamilySlot& family =
        *wheel[(static_cast<std::size_t>(i) * 37) % wheel.size()];
    const double target = std::exp(log_nnz(rng)) * options.scale;
    const std::uint64_t seed = rng();
    // A slice of naturally ordered matrices gets a graded disturbance: the
    // window size spans "barely disturbed" to "fully random", mirroring the
    // spread of stored-order quality in the collection.
    const bool shuffle = uniform(rng) < 0.45;
    const double window_draw = uniform(rng);
    // Most real matrices have heterogeneous row lengths even when the
    // generator's stencil is uniform (boundaries, constraints, coupling
    // terms); sprinkling a few long-range entries onto a fraction of rows
    // restores that heterogeneity, which matters for the Gray ordering's
    // density split.
    const bool sprinkle_rows = uniform(rng) < 0.6;

    CorpusEntry entry;
    entry.group = family.group;
    entry.spd = family.spd;
    auto disturb = [&](CsrMatrix m) {
      if (!shuffle) return m;
      const double span = std::log(4.0 * std::max<index_t>(m.num_rows(), 2));
      const index_t window = std::max<index_t>(
          64, static_cast<index_t>(std::exp(std::log(64.0) +
                                            window_draw * span)));
      return window_shuffle(m, window, seed);
    };
    char name[64];
    std::snprintf(name, sizeof(name), "%s_%04d", family.group, i);
    entry.name = name;

    const std::string group = family.group;
    if (group == "mesh2d") {
      const index_t s = side_for(target, 5.0, 2);
      entry.matrix = disturb(gen_mesh2d(s, std::max<index_t>(2, s + static_cast<index_t>(seed % 7)),
                     seed % 2 == 0 ? 5 : 9));
      if (sprinkle_rows) entry.matrix = sprinkle(entry.matrix, 0.12, 4, seed);
    } else if (group == "mesh3d") {
      const index_t s = side_for(target, 7.0, 3);
      entry.matrix =
          disturb(gen_mesh3d(s, s, std::max<index_t>(2, s - 1), 7));
      if (sprinkle_rows) entry.matrix = sprinkle(entry.matrix, 0.12, 4, seed);
    } else if (group == "fem") {
      const int dofs = 2 + static_cast<int>(seed % 3);  // 2..4 dofs per node
      const index_t s = side_for(target / (dofs * dofs), 9.0, 2);
      entry.matrix = disturb(gen_fem_blocked(s, s, dofs));
      if (sprinkle_rows) entry.matrix = sprinkle(entry.matrix, 0.10, 3, seed);
    } else if (group == "geometric") {
      const index_t n = static_cast<index_t>(std::max(64.0, target / 7.0));
      entry.matrix = gen_geometric(n, 1.2 + 0.4 * uniform(rng), seed);
    } else if (group == "circuit") {
      const index_t n = static_cast<index_t>(std::max(64.0, target / 5.0));
      entry.matrix = gen_circuit(n, 1 + static_cast<int>(seed % 4),
                                 2.0 + 2.0 * uniform(rng), seed);
    } else if (group == "cfd") {
      const int dofs = 1 + static_cast<int>(seed % 4);
      const index_t s = side_for(target / (dofs * dofs), 7.0, 3);
      entry.matrix = disturb(gen_cfd(s, s, std::max<index_t>(2, s - 1), dofs, seed));
    } else if (group == "road") {
      const index_t n = static_cast<index_t>(std::max(64.0, target / 3.8));
      entry.matrix = gen_road_network(n, seed);
    } else if (group == "rmat") {
      const int scale_bits = std::max(
          6, static_cast<int>(std::log2(std::max(64.0, target / 17.0))));
      entry.matrix = gen_rmat(scale_bits, 8, 0.57, 0.19, 0.19, seed);
    } else if (group == "community") {
      const index_t n = static_cast<index_t>(std::max(128.0, target / 8.0));
      entry.matrix =
          gen_community(n, 16 + static_cast<index_t>(seed % 32), 0.3, seed);
    } else if (group == "debruijn") {
      const index_t n = static_cast<index_t>(std::max(128.0, target / 3.0));
      entry.matrix = gen_debruijn_chain(n, 0.02, seed);
    } else if (group == "kkt") {
      const index_t s = side_for(target / 1.6, 7.0, 3);
      entry.matrix = disturb(gen_kkt(s, s, s, seed));
      if (sprinkle_rows) entry.matrix = sprinkle(entry.matrix, 0.10, 3, seed);
    } else if (group == "banded") {
      const index_t bw = 8 + static_cast<index_t>(seed % 48);
      const double density = 0.3 + 0.5 * uniform(rng);
      const index_t n = static_cast<index_t>(
          std::max(64.0, target / (2.0 * bw * density + 1.0)));
      entry.matrix = disturb(gen_banded(n, bw, density, seed));
    } else if (group == "blockdiag") {
      const index_t bs = 8 + static_cast<index_t>(seed % 24);
      const index_t blocks = std::max<index_t>(
          2, static_cast<index_t>(target / (0.6 * bs * bs + 1.0)));
      entry.matrix = disturb(gen_block_diagonal(blocks, bs, 0.3, seed));
    } else {  // random
      const index_t n = static_cast<index_t>(std::max(64.0, target / 7.0));
      entry.matrix = gen_random_uniform(n, 6.0, seed);
      entry.spd = false;
    }
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

std::vector<std::string> named_standins() {
  return {"333SP",        "nv2",          "audikw_1",
          "HV15R",        "Freescale2",   "com-Amazon",
          "kmer_V1r",     "delaunay_n24", "europe_osm",
          "Flan_1565",    "indochina-2004",
          "kron_g500-logn21", "mycielskian19", "nlpkkt240",
          "vas_stokes_4M"};
}

CorpusEntry generate_named(const std::string& name, double scale) {
  CorpusEntry entry;
  entry.name = name;
  // `scale` multiplies the *nonzero count*; grid sides therefore scale by
  // the matching root of it.
  auto sz = [scale](double base) {  // linear sizes (vertex counts)
    return static_cast<index_t>(std::max(64.0, base * scale));
  };
  auto side2 = [scale](double base) {  // sides of 2D grids
    return static_cast<index_t>(std::max(4.0, base * std::sqrt(scale)));
  };
  auto side3 = [scale](double base) {  // sides of 3D grids
    return static_cast<index_t>(std::max(3.0, base * std::cbrt(scale)));
  };
  if (name == "333SP") {
    // 2D triangulation (structural problem), stored order scrambled:
    // reordering restores locality while balance stays even — Class 1.
    entry.group = "mesh2d";
    entry.spd = true;
    const index_t side = side2(160);
    entry.matrix = permute_symmetric(
        gen_mesh2d(side, side, 9), random_permutation(side * side, 3331));
  } else if (name == "nv2") {
    // Semiconductor device simulation: 3D mesh, scrambled, with uneven row
    // weights — reordering improves locality and balance — Class 2.
    entry.group = "semiconductor";
    entry.spd = false;
    CsrMatrix base = gen_cfd(side3(18), side3(18), side3(18), 2, 42);
    entry.matrix = permute_symmetric(
        base, random_permutation(base.num_rows(), 1177));
  } else if (name == "audikw_1") {
    // Solid mechanics, blocked FEM in its natural (good) order but with
    // uneven block rows: 1D is imbalanced, 2D is fine — Class 3.
    entry.group = "fem";
    entry.spd = true;
    entry.matrix = gen_fem_blocked(side2(52), side2(52), 3);
  } else if (name == "HV15R") {
    // CFD matrix in its natural, already cache-friendly order: reordering
    // changes little — Class 4.
    entry.group = "cfd";
    entry.spd = false;
    entry.matrix = gen_cfd(side3(16), side3(16), side3(16), 4, 15);
  } else if (name == "Freescale2") {
    // Circuit simulation with power rails, scrambled stored order.
    entry.group = "circuit";
    entry.spd = false;
    CsrMatrix base = gen_circuit(sz(30000), 3, 2.2, 22);
    entry.matrix =
        permute_symmetric(base, random_permutation(base.num_rows(), 9));
  } else if (name == "com-Amazon") {
    entry.group = "community";
    entry.spd = true;
    entry.matrix = gen_community(sz(12000), 24, 0.35, 77);
  } else if (name == "kmer_V1r") {
    entry.group = "debruijn";
    entry.spd = true;
    entry.matrix = gen_debruijn_chain(sz(120000), 0.015, 41);
  } else if (name == "delaunay_n24") {
    entry.group = "geometric";
    entry.spd = true;
    entry.matrix = gen_geometric(sz(30000), 1.4, 24);
  } else if (name == "europe_osm") {
    entry.group = "road";
    entry.spd = true;
    entry.matrix = gen_road_network(sz(90000), 20);
  } else if (name == "Flan_1565") {
    entry.group = "fem";
    entry.spd = true;
    entry.matrix = gen_fem_blocked(side2(60), side2(60), 3);
  } else if (name == "indochina-2004") {
    entry.group = "web";
    entry.spd = true;
    entry.matrix = gen_rmat(
        std::max(8, static_cast<int>(std::log2(16384.0 * scale))), 8, 0.7,
        0.15, 0.1, 2004);
  } else if (name == "kron_g500-logn21") {
    entry.group = "rmat";
    entry.spd = true;
    entry.matrix = gen_rmat(
        std::max(8, static_cast<int>(std::log2(8192.0 * scale))), 16, 0.57,
        0.19, 0.19, 21);
  } else if (name == "mycielskian19") {
    entry.group = "mycielskian";
    entry.spd = true;
    entry.matrix = gen_mycielskian(
        std::clamp(11 + static_cast<int>(std::log2(std::max(scale, 0.01)) / 2),
                   6, 13));
  } else if (name == "nlpkkt240") {
    entry.group = "kkt";
    entry.spd = false;
    entry.matrix = gen_kkt(side3(28), side3(28), side3(28), 240);
  } else if (name == "vas_stokes_4M") {
    entry.group = "cfd";
    entry.spd = false;
    entry.matrix = gen_cfd(side3(18), side3(18), side3(18), 3, 4000000);
  } else {
    throw invalid_argument_error("generate_named: unknown stand-in " + name);
  }
  return entry;
}

}  // namespace ordo
