#!/usr/bin/env python3
"""Check and compare ordo_bench run sets against BENCHMARK.json.

A run set is a directory of files named <workload>.<seed>.out, each holding
the standard output of one benchmark run (its last line is the JSON
summary). Collect one with, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 ordo_bench/run.py --workload sweep --seed $s --seconds 10 \\
          --trace 0 > runs/A/sweep.$s.out
    done

Commands:
  agree A B              Two run sets of the same code agree. For every
                         (workload, end-to-end metric): the spread of each
                         set, IQR / median, stays within the metric's bound
                         (setup_s excepted), and B's median is no worse than
                         A's by more than the bound, and every run passed
                         its output checks. Prints every spread.
  compare PARENT CHANGE  The paired rule for a claimed gain. Runs pair up by
                         (workload, seed); alternate which side runs first
                         when collecting. Each (workload, metric) gets one
                         verdict:
                           improved    at least 10 pairs, the change wins at
                                       least 9/10 of them (ties count for
                                       neither), the medians differ by more
                                       than the parent's IQR, and no more
                                       operations failed than at the parent;
                           regressed   the change's median is worse than the
                                       parent's by more than the bound;
                           unresolved  too few pairs, or a spread wider than
                                       the bound (unless every change run
                                       beats every parent run);
                           unchanged   otherwise.
                         Exits 1 when any verdict is regressed or a change
                         run failed its output checks.
  smoke BINARY           Runs BINARY --smoke on every workload with --trace 0
                         and 1, and checks that each prints every metric
                         BENCHMARK.json names, with its unit, and passes its
                         output checks.
  --self-test            Checks this tool on synthetic run sets.

Quartiles are Python's statistics.quantiles(n=4), as the bounds assume.
Stdlib only.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark():
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def load_run_set(directory):
    """{(workload, seed): summary} from <workload>.<seed>.out files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, _, seed = name[:-len(".out")].rpartition(".")
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            try:
                runs[(workload, seed)] = last_json_line(f.read())
            except ValueError as e:
                raise SystemExit(f"{directory}/{name}: no JSON summary ({e})")
    if not runs:
        raise SystemExit(f"{directory}: no <workload>.<seed>.out files")
    return runs


def spread(values):
    """IQR / median, or 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if other == base else math.inf
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def incorrect(runs):
    """Runs whose output checks failed, as <workload>.<seed>."""
    return sorted(f"{w}.{s}" for (w, s), run in runs.items()
                  if run.get("correct") is not True)


def values_of(runs, workload, metric):
    return [run["metrics"][metric]["value"]
            for (w, _), run in sorted(runs.items()) if w == workload]


def agree(bench, a_runs, b_runs):
    bad = incorrect(a_runs) + incorrect(b_runs)
    if bad:
        print("runs that failed their output checks: " + ", ".join(bad))
    ok = not bad
    print(f"{'workload':<13} {'metric':<16} {'bound':>6} {'spread A':>9} "
          f"{'spread B':>9} {'median A':>12} {'median B':>12} {'worse':>7}")
    for workload in sorted({w for w, _ in a_runs}):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = values_of(a_runs, workload, name)
            b = values_of(b_runs, workload, name)
            if not a or not b:
                print(f"{workload:<13} {name:<16} missing from a run set")
                ok = False
                continue
            bound = metric["bound"]
            sa, sb = spread(a), spread(b)
            worse = worse_by(metric, statistics.median(a), statistics.median(b))
            spread_ok = name == "setup_s" or (sa <= bound and sb <= bound)
            row_ok = spread_ok and worse <= bound
            ok = ok and row_ok
            flag = "" if row_ok else "  FAIL"
            if row_ok and name != "setup_s" and max(sa, sb) > bound / 3:
                flag = "  (spread above bound/3)"
            print(f"{workload:<13} {name:<16} {bound:>6.2f} {sa:>9.4f} "
                  f"{sb:>9.4f} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse:>7.3f}{flag}")
    print("agree: " + ("pass" if ok else "FAIL"))
    return ok


def verdict(metric, parent, change, parent_failed, change_failed):
    """parent/change: lists of values aligned by pair."""
    pairs = len(parent)
    bound = metric["bound"]
    better = (lambda c, p: c < p) if metric["better"] == "lower" else (
        lambda c, p: c > p)
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = worse_by(metric, mp, mc)
    if pairs < MIN_PAIRS:
        return "unresolved", f"{pairs} pairs < {MIN_PAIRS}"
    dominates = all(better(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not dominates:
        return "unresolved", "spread wider than the bound"
    if worse > bound:
        return "regressed", f"median worse by {worse:.3f} > bound {bound}"
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if (better(mc, mp) and wins >= WIN_SHARE * pairs
            and abs(mc - mp) > q3 - q1 and change_failed <= parent_failed):
        return "improved", f"won {wins}/{pairs}, gap {abs(mc - mp):.4g}"
    return "unchanged", f"won {wins}/{pairs}, median change {-worse:+.3f}"


def compare(bench, parent_runs, change_runs):
    bad = incorrect(change_runs)
    if bad:
        print("change runs that failed their output checks: " + ", ".join(bad))
    regressed = bool(bad)
    for workload in sorted({w for w, _ in parent_runs}):
        keys = sorted(k for k in parent_runs
                      if k[0] == workload and k in change_runs)
        parent_failed = sum(parent_runs[k]["failed"] for k in keys)
        change_failed = sum(change_runs[k]["failed"] for k in keys)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [parent_runs[k]["metrics"][name]["value"] for k in keys]
            change = [change_runs[k]["metrics"][name]["value"] for k in keys]
            if not keys:
                result, why = "unresolved", "no pairs"
            else:
                result, why = verdict(metric, parent, change, parent_failed,
                                      change_failed)
            regressed = regressed or result == "regressed"
            mp = statistics.median(parent) if parent else math.nan
            mc = statistics.median(change) if change else math.nan
            print(f"{workload:<13} {name:<16} {result:<10} parent {mp:<12.6g} "
                  f"change {mc:<12.6g} {why}")
    return not regressed


def smoke(bench, binary):
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[group]}
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "2023", "--seconds",
                 "0.2", "--trace", trace, "--smoke"],
                capture_output=True, text=True, timeout=120)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
            try:
                summary = last_json_line(proc.stdout)
            except ValueError as e:
                summary = {}
                problems.append(f"no JSON summary ({e})")
            if summary:
                if set(summary) != {"correct", "attempted", "failed",
                                    "metrics"}:
                    problems.append(f"summary keys {sorted(summary)}")
                if summary.get("correct") is not True:
                    problems.append("correct is not true")
                if not summary.get("attempted", 0) >= 1:
                    problems.append("attempted < 1")
                got = {name: m.get("unit")
                       for name, m in summary.get("metrics", {}).items()}
                if got != expected:
                    problems.append(
                        f"metrics differ: missing {sorted(set(expected) - set(got))}"
                        f", extra {sorted(set(got) - set(expected))}, units "
                        f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
                for name, m in summary.get("metrics", {}).items():
                    value = m.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"{name} is not a finite number")
                    elif group == "end_to_end" and value <= 0:
                        problems.append(f"{name} is not positive")
                    if not any(line.split()[:2] == [workload, name] and
                               expected[name] in line.split()
                               for line in proc.stdout.splitlines()
                               if len(line.split()) >= 4):
                        problems.append(f"{name} not printed with its unit")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            ok = ok and not problems
            print(f"smoke {workload} --trace {trace}: {status}")
    return ok


# ---------------------------------------------------------------------------


def _write_run_set(directory, workload, values_by_metric, failed=0):
    os.makedirs(directory, exist_ok=True)
    count = len(next(iter(values_by_metric.values())))
    for i in range(count):
        summary = {"correct": True, "attempted": 10, "failed": failed,
                   "metrics": {name: {"value": values[i], "unit": "s"}
                               for name, values in values_by_metric.items()}}
        with open(os.path.join(directory, f"{workload}.{i + 1}.out"), "w",
                  encoding="utf-8") as f:
            f.write(f"{workload} wall_s {values_by_metric['wall_s'][i]} s\n")
            f.write(json.dumps(summary) + "\n")


def self_test():
    bench = {"workloads": [{"name": "w", "why": "test"}],
             "end_to_end": [
                 {"name": "wall_s", "unit": "s", "better": "lower",
                  "bound": 0.1},
                 {"name": "setup_s", "unit": "s", "better": "lower",
                  "bound": 0.25}]}
    wall, setup = bench["end_to_end"]
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    noisy_setup = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]

    assert abs(spread([1, 2, 3, 4]) - (statistics.quantiles(
        [1, 2, 3, 4], n=4)[2] - statistics.quantiles([1, 2, 3, 4], n=4)[0])
        / 2.5) < 1e-12
    assert worse_by(wall, 1.0, 1.1) > 0 > worse_by(wall, 1.0, 0.9)

    with tempfile.TemporaryDirectory() as tmp:
        a, b, slow, noisy = (os.path.join(tmp, d) for d in "abcd")
        _write_run_set(a, "w", {"wall_s": steady, "setup_s": noisy_setup})
        _write_run_set(b, "w", {"wall_s": steady[::-1], "setup_s": noisy_setup})
        _write_run_set(slow, "w", {"wall_s": [v * 1.3 for v in steady],
                                   "setup_s": noisy_setup})
        _write_run_set(noisy, "w", {"wall_s": [0.5, 1.5] * 5,
                                    "setup_s": noisy_setup})
        runs = {d: load_run_set(d) for d in (a, b, slow, noisy)}
        assert len(runs[a]) == 10
        # setup_s spread is exempt; its median still has to agree.
        assert agree(bench, runs[a], runs[b])
        assert not agree(bench, runs[a], runs[slow])
        assert not agree(bench, runs[a], runs[noisy])
        broken = dict(runs[b])
        broken[("w", "1")] = dict(broken[("w", "1")], correct=False)
        assert not agree(bench, runs[a], broken)
        assert not compare(bench, runs[a], broken)

    fast = [v * 0.8 for v in steady]
    assert verdict(wall, steady, fast, 0, 0)[0] == "improved"
    assert verdict(wall, steady, fast, 0, 1)[0] == "unchanged"  # more failures
    # A clear median gap, but the change wins only 8 of 10 pairs.
    lucky_parent = [0.85, 0.85] + steady[2:]
    near = [0.90, 0.90, 0.90, 0.91, 0.89, 0.90, 0.90, 0.91, 0.89, 0.90]
    assert verdict(wall, lucky_parent, near, 0, 0)[0] == "unchanged"
    assert verdict(wall, steady[:9], fast[:9], 0, 0)[0] == "unresolved"
    assert verdict(wall, steady, [v * 1.3 for v in steady], 0, 0)[0] == \
        "regressed"
    assert verdict(wall, steady, steady[::-1], 0, 0)[0] == "unchanged"
    assert verdict(wall, [0.5, 1.5] * 5, [0.6, 1.4] * 5, 0, 0)[0] == \
        "unresolved"
    # A wide spread is resolved when every change run beats every parent run.
    assert verdict(wall, [2.0, 3.0] * 5, [0.5, 1.5] * 5, 0, 0)[0] == \
        "improved"
    assert verdict(setup, noisy_setup, noisy_setup, 0, 0)[0] == "unresolved"
    print("compare self-test: ok")
    return True


def main(argv):
    if argv == ["--self-test"]:
        return 0 if self_test() else 1
    if len(argv) == 3 and argv[0] in ("agree", "compare"):
        bench = load_benchmark()
        first, second = load_run_set(argv[1]), load_run_set(argv[2])
        run = agree if argv[0] == "agree" else compare
        return 0 if run(bench, first, second) else 1
    if len(argv) == 2 and argv[0] == "smoke":
        return 0 if smoke(load_benchmark(), argv[1]) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
