#!/usr/bin/env python3
"""Train the ordering selector and regenerate src/select/model_coeffs.inc.

Offline half of src/select (the C++ half only does inference).  Three fits,
all tiny and dependency-free (hand-rolled ridge regression solved by Gaussian
elimination -- no numpy):

  1. Speedup model: per (kernel x ordering), linear weights over the schema-v1
     feature vector (src/features/feature_vector.hpp) predicting
     log2(SpMV speedup over Original).  Training rows come from the cached
     study result files (ordo_results/*.txt, one row per matrix x machine).
  2. Reorder-cost model: per ordering, log2(seconds) as an affine function of
     log2(1+nnz) and log2(1+rows), fitted to the wall-clock measurements that
     bench/table5_reorder_time writes to reorder_times.txt.
  3. Decision margin: grid-searched by replaying the selection rule over the
     training sweep and keeping the margin that minimises the geomean realized
     net time (modeled SpMV seconds + amortized reorder cost).

The output is a C++ table (model_coeffs.inc) consumed by src/select/model.cpp;
kModelVersion bumps on every retrain so journal fingerprints change with the
model.  Diagnostics printed at the end include the acceptance check: geomean
realized net time of the selector's picks vs. the best single fixed ordering.

Usage:
  python3 tools/ordo_train_selector.py --results ordo_results \
      --costs ordo_results/reorder_times.txt --version 2 \
      --out src/select/model_coeffs.inc
  python3 tools/ordo_train_selector.py --check src/select/model_coeffs.inc
  python3 tools/ordo_train_selector.py --self-test

--check regenerates the table from the same tracked inputs, stamped with the
kModelVersion the checked file carries, and byte-compares it with that file
(exit 1 on any difference), so a committed table that no longer follows from
its inputs fails the `check` ctest label.
"""

import argparse
import math
import os
import re
import sys

# Must mirror the C++ study order (reorder/reordering.hpp study_orderings())
# and the schema in src/features/feature_vector.hpp.
ORDERINGS = ["Original", "RCM", "AMD", "ND", "GP", "HP", "Gray"]
KERNELS = ["csr_1d", "csr_2d"]
FEATURE_VERSION = 1
NUM_FEATURES = 8
NUM_WEIGHTS = NUM_FEATURES + 1  # bias first

RESULT_FILE_RE = re.compile(
    r"^(?P<kernel>csr_1d|csr_2d)_(?P<machine>.+)_(?P<threads>\d+)_threads_"
    r"(?P<corpus>ss\d+)\.txt$")


# ---------------------------------------------------------------------------
# Linear algebra (no numpy: Gaussian elimination with partial pivoting).
# ---------------------------------------------------------------------------

def solve(a, b):
    """Solve a x = b for a dense square system, destructively."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-300:
            raise ValueError("singular system in solve()")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x


def ridge_fit(xs, ys, lam):
    """Least squares with L2 penalty lam on every weight except the bias.

    xs: list of feature rows WITHOUT the leading 1 (bias is added here).
    Returns [bias, w_0, ..., w_{k-1}].
    """
    if not xs:
        raise ValueError("ridge_fit: empty training set")
    k = len(xs[0]) + 1
    xtx = [[0.0] * k for _ in range(k)]
    xty = [0.0] * k
    for row, y in zip(xs, ys):
        full = [1.0] + list(row)
        for i in range(k):
            xty[i] += full[i] * y
            for j in range(i, k):
                xtx[i][j] += full[i] * full[j]
    for i in range(k):
        for j in range(i):
            xtx[i][j] = xtx[j][i]
    for i in range(1, k):  # leave the bias unpenalised
        xtx[i][i] += lam
    return solve(xtx, xty)


def predict(weights, features):
    return weights[0] + sum(w * f for w, f in zip(weights[1:], features))


def r_squared(weights, xs, ys):
    mean = sum(ys) / len(ys)
    ss_tot = sum((y - mean) ** 2 for y in ys) or 1e-300
    ss_res = sum((y - predict(weights, x)) ** 2 for x, y in zip(xs, ys))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Result-file parsing.
# ---------------------------------------------------------------------------

def log2_1p(v):
    return math.log2(1.0 + float(v))


def parse_result_file(path):
    """Returns (columns, rows) where columns maps header token -> index."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        if not header or header[0] != "#":
            raise ValueError("%s: missing '#' header" % path)
        columns = {tok: i for i, tok in enumerate(header[1:])}
        rows = []
        for line in f:
            fields = line.split()
            if not fields:
                continue
            if len(fields) != len(columns):
                raise ValueError("%s: row arity %d != header arity %d"
                                 % (path, len(fields), len(columns)))
            rows.append(fields)
    return columns, rows


def make_features(columns, fields, imbalance_1d):
    """Schema-v1 feature vector; mirrors features::make_selector_features."""
    rows = float(fields[columns["rows"]])
    nnz = float(fields[columns["nnz"]])
    threads = float(fields[columns["threads"]])
    bandwidth = float(fields[columns["Original:bandwidth"]])
    profile = float(fields[columns["Original:profile"]])
    offdiag = float(fields[columns["Original:offdiag_nnz"]])
    return [
        log2_1p(rows),
        log2_1p(nnz),
        nnz / max(rows, 1.0),
        bandwidth / max(rows, 1.0),
        log2_1p(profile),
        offdiag / max(nnz, 1.0),
        imbalance_1d,
        math.log2(max(threads, 1.0)),
    ]


def load_sweep(results_dir):
    """Load every study result file.

    Returns a list of dicts, one per (kernel, machine) table:
      {kernel, machine, threads, rows: [(name, features, seconds[7],
                                         nrows, nnz)]}
    The f6 feature (1-D load imbalance under Original) always comes from the
    csr_1d sibling file, matching core/auto_order.cpp.
    """
    files = {}
    for entry in sorted(os.listdir(results_dir)):
        m = RESULT_FILE_RE.match(entry)
        if m:
            files[entry] = m
    if not files:
        raise ValueError("no study result files found in %s" % results_dir)

    # First pass: per (machine, corpus), matrix name -> Original 1-D imbalance.
    imbalance_1d = {}
    for entry, m in files.items():
        if m.group("kernel") != "csr_1d":
            continue
        columns, rows = parse_result_file(os.path.join(results_dir, entry))
        per_name = {}
        for fields in rows:
            per_name[fields[columns["name"]]] = float(
                fields[columns["Original:imbalance"]])
        imbalance_1d[(m.group("machine"), m.group("corpus"))] = per_name

    tables = []
    for entry, m in files.items():
        sibling = imbalance_1d.get((m.group("machine"), m.group("corpus")))
        if sibling is None:
            raise ValueError("%s: no csr_1d sibling for the f6 feature"
                             % entry)
        columns, raw = parse_result_file(os.path.join(results_dir, entry))
        seconds_cols = [columns["%s:seconds" % o] for o in ORDERINGS]
        rows = []
        for fields in raw:
            name = fields[columns["name"]]
            feats = make_features(columns, fields, sibling[name])
            secs = [float(fields[c]) for c in seconds_cols]
            rows.append((name, feats, secs,
                         int(fields[columns["rows"]]),
                         int(fields[columns["nnz"]])))
        tables.append({
            "kernel": m.group("kernel"),
            "machine": m.group("machine"),
            "threads": int(m.group("threads")),
            "rows": rows,
        })
    return tables


# ---------------------------------------------------------------------------
# Fits.
# ---------------------------------------------------------------------------

def fit_speedup_model(tables, lam):
    """kSpeedupWeights[kernel][ordering][bias+8] plus per-fit R^2."""
    weights = [[[0.0] * NUM_WEIGHTS for _ in ORDERINGS] for _ in KERNELS]
    diag = []
    for ki, kernel in enumerate(KERNELS):
        rows = [r for t in tables if t["kernel"] == kernel for r in t["rows"]]
        if not rows:
            raise ValueError("no training rows for kernel %s" % kernel)
        xs = [r[1] for r in rows]
        for oi in range(1, len(ORDERINGS)):
            ys = [math.log2(r[2][0] / r[2][oi]) for r in rows]
            w = ridge_fit(xs, ys, lam)
            weights[ki][oi] = w
            diag.append((kernel, ORDERINGS[oi], len(rows),
                         r_squared(w, xs, ys)))
    return weights, diag


def load_costs(path):
    """reorder_times.txt -> list of (ordering, rows, nnz, seconds)."""
    samples = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            name, rows, nnz, ordering, ms = fields
            samples.append((ordering, int(rows), int(nnz),
                            float(ms) * 1e-3))
    if not samples:
        raise ValueError("no cost samples in %s" % path)
    return samples


def fit_cost_model(samples, lam):
    """kReorderCostCoeffs[ordering][c0,c1,c2] plus per-fit R^2.

    The table's shape is log2(seconds) = c0 + c1*log2(1+nnz) +
    c2*log2(1+rows), but rows and nnz are almost perfectly collinear over the
    ten calibration stand-ins, so fitting both gives nonsense signs ("bigger
    reorders faster").  We fit the nnz term only and pin c2 = 0 -- the rows
    axis stays in the table for a future, better-conditioned calibration set.
    Original costs nothing (row kept zero; model.cpp returns 0 for index 0).
    """
    coeffs = [[0.0, 0.0, 0.0] for _ in ORDERINGS]
    diag = []
    for oi, ordering in enumerate(ORDERINGS):
        if oi == 0:
            continue
        pts = [s for s in samples if s[0] == ordering]
        if not pts:
            raise ValueError("no cost samples for ordering %s" % ordering)
        xs = [[log2_1p(nnz)] for _, _, nnz, _ in pts]
        ys = [math.log2(sec) for _, _, _, sec in pts]
        w = ridge_fit(xs, ys, lam)
        coeffs[oi] = [w[0], w[1], 0.0]
        diag.append((ordering, len(pts), r_squared(w, xs, ys)))
    return coeffs, diag


def cost_seconds(coeffs, oi, nrows, nnz):
    if oi == 0:
        return 0.0
    c = coeffs[oi]
    return 2.0 ** (c[0] + c[1] * log2_1p(nnz) + c[2] * log2_1p(nrows))


# ---------------------------------------------------------------------------
# Decision replay (mirrors select::select_ordering + core/auto_order.cpp).
# ---------------------------------------------------------------------------

def replay(tables, weights, coeffs, budget, margin):
    """Replay the selection rule over the sweep.

    Returns (geomean pick net, geomean oracle net, [geomean fixed net per
    ordering], hit_rate, mean_regret).  All nets are realized: measured
    modeled seconds + model reorder cost amortized over the budget.
    """
    n = 0
    log_pick = log_oracle = 0.0
    log_fixed = [0.0] * len(ORDERINGS)
    hits = 0
    regret_sum = 0.0
    for table in tables:
        ki = KERNELS.index(table["kernel"])
        for _, feats, secs, nrows, nnz in table["rows"]:
            amort = [cost_seconds(coeffs, oi, nrows, nnz) / budget
                     for oi in range(len(ORDERINGS))]
            pred = [secs[0] / (2.0 ** predict(weights[ki][oi], feats))
                    + amort[oi] if oi else secs[0]
                    for oi in range(len(ORDERINGS))]
            pick = min(range(len(ORDERINGS)), key=lambda i: (pred[i], i))
            if pick != 0 and pred[pick] > pred[0] * (1.0 - margin):
                pick = 0
            real = [secs[oi] + amort[oi] for oi in range(len(ORDERINGS))]
            oracle = min(range(len(ORDERINGS)), key=lambda i: (real[i], i))
            n += 1
            log_pick += math.log(real[pick])
            log_oracle += math.log(real[oracle])
            for oi in range(len(ORDERINGS)):
                log_fixed[oi] += math.log(real[oi])
            hits += pick == oracle
            regret_sum += real[pick] / real[oracle] - 1.0
    return (math.exp(log_pick / n), math.exp(log_oracle / n),
            [math.exp(v / n) for v in log_fixed], hits / n, regret_sum / n)


def search_margin(tables, weights, coeffs, budget, grid):
    best = None
    rows = []
    for margin in grid:
        pick_net, _, _, hit, _ = replay(tables, weights, coeffs, budget,
                                        margin)
        rows.append((margin, pick_net, hit))
        if best is None or pick_net < best[1] - 1e-15:
            best = (margin, pick_net)
    return best[0], rows


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------

def fmt(v):
    """Shortest decimal that round-trips (C++ parses it back exactly)."""
    if v == 0.0:
        return "0"
    return repr(float(v))


def emit_inc(weights, coeffs, margin, version):
    lines = []
    out = lines.append
    out("// Generated by tools/ordo_train_selector.py — do not edit by hand.")
    out("// Trained on the cached ss490 sweep; regenerate with:")
    out("//   python3 tools/ordo_train_selector.py --results ordo_results")
    out("//     --costs ordo_results/reorder_times.txt --version %d "
        "--out src/select/model_coeffs.inc" % version)
    out("inline constexpr int kModelVersion = %d;" % version)
    out("inline constexpr int kModelFeatureVersion = %d;" % FEATURE_VERSION)
    out("inline constexpr int kModelNumKernels = %d;" % len(KERNELS))
    out("inline constexpr int kModelNumOrderings = %d;" % len(ORDERINGS))
    out("inline constexpr int kModelNumWeights = %d;  // bias + %d features"
        % (NUM_WEIGHTS, NUM_FEATURES))
    out("inline constexpr const char* kModelKernels[kModelNumKernels] = {")
    out("    %s};" % ", ".join('"%s"' % k for k in KERNELS))
    out("// log2(SpMV speedup over Original) = w[0] + sum_i w[1+i] * "
        "feature[i];")
    out("// ordering axis in study order (Original row unused, kept for "
        "alignment).")
    out("inline constexpr double kSpeedupWeights[kModelNumKernels]"
        "[kModelNumOrderings]")
    out("                                       [kModelNumWeights] = {")
    for ki, kernel in enumerate(KERNELS):
        out("    // %s" % kernel)
        out("    {")
        for oi, ordering in enumerate(ORDERINGS):
            body = ", ".join(fmt(w) for w in weights[ki][oi])
            out("        // %s" % ordering)
            out("        {%s}," % body)
        out("    },")
    out("};")
    out("// log2(reorder seconds) = c0 + c1*log2(1+nnz) + c2*log2(1+rows);")
    out("// Original row unused. Calibrated from reorder_times.txt "
        "(bench/table5).")
    out("inline constexpr double kReorderCostCoeffs[kModelNumOrderings][3]"
        " = {")
    for oi, ordering in enumerate(ORDERINGS):
        out("    {%s},  // %s"
            % (", ".join(fmt(c) for c in coeffs[oi]), ordering))
    out("};")
    out("// Relative margin a pick's predicted net time must beat "
        "Original's by.")
    out("inline constexpr double kDecisionMargin = %s;" % fmt(margin))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self test (synthetic, no repo files needed).
# ---------------------------------------------------------------------------

def self_test():
    # solve(): known 3x3 system.
    x = solve([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
              [3.0, 5.0, 3.0])
    assert all(abs(v - 1.0) < 1e-12 for v in x), x

    # ridge_fit(): exact linear data is recovered (tiny lambda).
    xs = [[float(i), float(i * i % 7)] for i in range(40)]
    ys = [2.0 + 3.0 * a - 1.5 * b for a, b in xs]
    w = ridge_fit(xs, ys, 1e-9)
    assert abs(w[0] - 2.0) < 1e-6 and abs(w[1] - 3.0) < 1e-6 \
        and abs(w[2] + 1.5) < 1e-6, w
    assert r_squared(w, xs, ys) > 0.999999

    # fit_cost_model(): synthesized from known coefficients, recovered.
    truth = (-20.0, 1.25)
    samples = []
    for i in range(1, 11):
        nrows, nnz = 1000 * i, 17000 * i * i
        sec = 2.0 ** (truth[0] + truth[1] * log2_1p(nnz))
        samples.append(("RCM", nrows, nnz, sec))
        samples.append(("Gray", nrows, nnz, sec * 0.125))
    samples += [(o, 1000, 17000, 1e-3) for o in ("AMD", "ND", "GP", "HP")]
    coeffs, diag = fit_cost_model(samples, 1e-9)
    assert all(c[2] == 0.0 for c in coeffs)  # rows axis pinned
    got = cost_seconds(coeffs, ORDERINGS.index("RCM"), 5000, 17000 * 25)
    want = 2.0 ** (truth[0] + truth[1] * log2_1p(17000 * 25))
    assert abs(got / want - 1.0) < 1e-3, (got, want)
    gray = cost_seconds(coeffs, ORDERINGS.index("Gray"), 5000, 17000 * 25)
    assert abs(gray / (want * 0.125) - 1.0) < 1e-3, (gray, want)
    assert cost_seconds(coeffs, 0, 5000, 17000) == 0.0

    # replay(): a sweep where RCM is always the winner and the model knows
    # it -> picks match the oracle, regret 0, margin 0.5 forces Original.
    weights = [[[0.0] * NUM_WEIGHTS for _ in ORDERINGS] for _ in KERNELS]
    for ki in range(len(KERNELS)):
        weights[ki][ORDERINGS.index("RCM")][0] = 1.0  # predict 2x speedup
    free = [[0.0, 0.0, 0.0] for _ in ORDERINGS]  # zero-cost orderings
    secs = [1e-4] * len(ORDERINGS)
    secs[ORDERINGS.index("RCM")] = 0.5e-4
    tables = [{"kernel": "csr_1d", "machine": "m", "threads": 4,
               "rows": [("a", [0.0] * NUM_FEATURES, secs, 100, 1000)]}]
    free_cost = [[c for c in row] for row in free]
    for oi in range(1, len(ORDERINGS)):
        free_cost[oi][0] = -60.0  # ~8.7e-19 s: negligible but nonzero
    pick_net, oracle_net, fixed, hit, regret = replay(
        tables, weights, free_cost, 1000.0, 0.0)
    assert hit == 1.0 and regret < 1e-12, (hit, regret)
    assert abs(pick_net - oracle_net) < 1e-18
    assert min(fixed) >= oracle_net - 1e-18
    pick_net_m, _, _, hit_m, _ = replay(tables, weights, free_cost, 1000.0,
                                        0.9)
    assert hit_m == 0.0 and pick_net_m > pick_net  # margin forced Original

    # emit_inc(): output has every constant the C++ side static_asserts on.
    inc = emit_inc(weights, free_cost, 0.02, 3)
    for token in ("kModelVersion = 3", "kModelFeatureVersion = 1",
                  "kSpeedupWeights", "kReorderCostCoeffs",
                  "kDecisionMargin = 0.02"):
        assert token in inc, token
    assert inc.count("{") == inc.count("}")

    print("ordo_train_selector: self-test OK")
    return 0


# ---------------------------------------------------------------------------


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="ordo_results",
                        help="directory with study result files")
    parser.add_argument("--costs", default=None,
                        help="reorder_times.txt (default <results>/"
                             "reorder_times.txt)")
    parser.add_argument("--out", default=None,
                        help="write model_coeffs.inc here (default: print "
                             "diagnostics only)")
    parser.add_argument("--budget", type=float, default=10000.0,
                        help="SpMV calls the reorder cost amortizes over "
                             "(must match StudyOptions.spmv_budget)")
    parser.add_argument("--ridge", type=float, default=1e-3,
                        help="L2 penalty for the speedup fit")
    parser.add_argument("--cost-ridge", type=float, default=1e-2,
                        help="L2 penalty for the reorder-cost fit")
    parser.add_argument("--version", type=int, default=None,
                        help="kModelVersion to stamp into the table "
                             "(default 1, or with --check the checked "
                             "file's own)")
    parser.add_argument("--check", default=None, metavar="INC",
                        help="regenerate the table and byte-compare it with "
                             "INC instead of writing it; exit 1 on a "
                             "difference")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    costs_path = args.costs or os.path.join(args.results,
                                            "reorder_times.txt")
    tables = load_sweep(args.results)
    n_rows = sum(len(t["rows"]) for t in tables)
    print("loaded %d tables (%d rows) from %s"
          % (len(tables), n_rows, args.results))

    weights, speed_diag = fit_speedup_model(tables, args.ridge)
    print("\nspeedup fit (label: log2 speedup over Original):")
    for kernel, ordering, n, r2 in speed_diag:
        print("  %-7s %-5s n=%-5d R^2=%.3f" % (kernel, ordering, n, r2))

    coeffs, cost_diag = fit_cost_model(load_costs(costs_path),
                                       args.cost_ridge)
    print("\nreorder-cost fit (label: log2 seconds):")
    for ordering, n, r2 in cost_diag:
        print("  %-5s n=%-3d R^2=%.3f  coeffs=[%s]"
              % (ordering, n, r2,
                 ", ".join("%.4f" % c for c in coeffs[ORDERINGS.index(
                     ordering)])))

    grid = [0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2]
    margin, margin_rows = search_margin(tables, weights, coeffs,
                                        args.budget, grid)
    print("\nmargin grid-search (budget=%g):" % args.budget)
    for m, net, hit in margin_rows:
        mark = " <-- chosen" if m == margin else ""
        print("  margin=%-5g geomean-pick-net=%.6e hit-rate=%.3f%s"
              % (m, net, hit, mark))

    pick_net, oracle_net, fixed, hit, regret = replay(
        tables, weights, coeffs, args.budget, margin)
    best_fixed = min(range(len(ORDERINGS)), key=lambda i: fixed[i])
    print("\ntraining-set evaluation (realized net seconds, geomean):")
    for oi, ordering in enumerate(ORDERINGS):
        print("  fixed %-8s %.6e%s"
              % (ordering, fixed[oi],
                 "  <-- best fixed" if oi == best_fixed else ""))
    print("  selector       %.6e" % pick_net)
    print("  oracle         %.6e" % oracle_net)
    print("  hit-rate %.3f  mean-regret %.4f" % (hit, regret))
    win = fixed[best_fixed] / pick_net - 1.0
    gap = pick_net / oracle_net - 1.0
    print("  selector vs best fixed: %+.2f%%  (oracle gap %.2f%%)"
          % (win * 100.0, gap * 100.0))
    if win <= 0.0:
        print("WARNING: selector does not beat the best fixed ordering")

    if args.check:
        with open(args.check, "rb") as f:
            committed = f.read()
        if args.version is None:
            m = re.search(rb"kModelVersion = (\d+);", committed)
            args.version = int(m.group(1)) if m else 1
        inc = emit_inc(weights, coeffs, margin, args.version)
        if committed != inc.encode("utf-8"):
            print("\n%s does not match its regeneration from %s and %s; "
                  "retrain with --out (see EXPERIMENTS.md)"
                  % (args.check, args.results, costs_path))
            return 1
        print("\n%s matches its regeneration" % args.check)
    elif args.out:
        args.version = args.version or 1
        inc = emit_inc(weights, coeffs, margin, args.version)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(inc)
        print("\nwrote %s (model version %d)" % (args.out, args.version))
    else:
        print("\n(dry run: pass --out src/select/model_coeffs.inc to write)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
