#!/usr/bin/env python3
"""ordo_top: live terminal monitor for a running ordo study.

Reads the status snapshots a study publishes (schema in
docs/ARCHITECTURE.md "Live telemetry") from its heartbeat file:

  --file PATH   the atomically-renamed heartbeat JSON written by
                run_study --status-file PATH (or ORDO_STATUS_FILE=PATH)

and renders a top-style view: progress bar, completed/failed/timeout
tally, EWMA ETA, per-worker in-flight matrices with their current phase
(reorder/profile/features/spmv/model/journal) and deadline margin, plan
cache hit rate (engine.plan_cache.* metrics), the ordering selector's
tally when the study runs with --auto-order (select.* metrics: decisions,
oracle hit rate, mean and max regret, per-ordering picks, amortization
points), histogram percentiles (p50/p90/p99/p999: per task, per phase,
per ordering),
and — when the study runs with --hw — the latest counter window
(IPC, LLC miss rate, achieved vs peak GB/s).

Modes:
  (default)     full-screen curses refresh every --interval seconds;
                falls back to plain scrolling frames on dumb terminals
  --once        print a single plain-text frame and exit
  --check       fetch one snapshot, validate it against the published
                schema (types, required keys, absent-not-zero rules),
                print PASS/FAIL details, exit 0/1 — CI's schema gate

Stdlib only; exit status: 0 ok, 1 validation failure, 2 unreadable file.
"""

import argparse
import json
import sys
import time

PHASES = ("reorder", "profile", "features", "spmv", "model", "journal")
PERCENTILE_KEYS = ("p50", "p90", "p99", "p999")
SCHEMA_VERSION = 4


def fetch(args):
    """Returns the parsed snapshot dict, or raises OSError/ValueError."""
    with open(args.file, encoding="utf-8") as f:
        return json.load(f)


# --- schema validation (--check) -------------------------------------------

def _expect(errors, cond, message):
    if not cond:
        errors.append(message)


def validate(snap):
    """Returns a list of schema violations (empty = valid)."""
    errors = []
    _expect(errors, isinstance(snap, dict), "snapshot is not a JSON object")
    if not isinstance(snap, dict):
        return errors
    _expect(errors, snap.get("schema_version") == SCHEMA_VERSION,
            f"schema_version != {SCHEMA_VERSION} "
            f"(got {snap.get('schema_version')!r})")
    for key, kind in (("pid", int), ("uptime_seconds", (int, float)),
                      ("run", dict), ("workers", list), ("metrics", dict)):
        _expect(errors, isinstance(snap.get(key), kind),
                f"missing or mistyped top-level key '{key}'")

    run = snap.get("run", {})
    if isinstance(run, dict):
        for key in ("running", "total", "completed", "failed", "timeouts",
                    "resumed", "in_flight", "workers", "fraction",
                    "elapsed_seconds"):
            _expect(errors, key in run, f"run.{key} missing")
        for key in ("total", "completed", "failed", "timeouts", "resumed",
                    "in_flight", "workers"):
            value = run.get(key)
            _expect(errors, isinstance(value, int) and value >= 0,
                    f"run.{key} is not a non-negative integer")
        fraction = run.get("fraction")
        _expect(errors, isinstance(fraction, (int, float))
                and 0.0 <= fraction <= 1.0,
                "run.fraction outside [0, 1]")
        # Absent-not-zero: before the first completion there is no EWMA,
        # so the field must be missing rather than a misleading 0.
        if "eta_seconds" in run:
            _expect(errors, isinstance(run["eta_seconds"], (int, float))
                    and run["eta_seconds"] >= 0.0,
                    "run.eta_seconds present but negative/mistyped")
            _expect(errors, run.get("completed", 0) + run.get("failed", 0) > 0,
                    "run.eta_seconds present before any task finished")
        # Same rule for the v2 pace field.
        if "rate_tasks_per_second" in run:
            _expect(errors,
                    isinstance(run["rate_tasks_per_second"], (int, float))
                    and run["rate_tasks_per_second"] > 0.0,
                    "run.rate_tasks_per_second present but non-positive")
            _expect(errors, run.get("completed", 0) + run.get("failed", 0) > 0,
                    "run.rate_tasks_per_second present before any task "
                    "finished")

    for i, worker in enumerate(snap.get("workers") or []):
        for key, kind in (("slot", int), ("task_index", int),
                          ("matrix", str), ("phase", str),
                          ("elapsed_seconds", (int, float))):
            _expect(errors, isinstance(worker.get(key), kind),
                    f"workers[{i}].{key} missing or mistyped")

    metrics = snap.get("metrics", {})
    if isinstance(metrics, dict):
        for group in ("counters", "gauges", "histograms"):
            _expect(errors, isinstance(metrics.get(group), dict),
                    f"metrics.{group} missing")
        for name, entry in (metrics.get("counters") or {}).items():
            _expect(errors, isinstance(entry, dict) and "value" in entry
                    and "delta" in entry,
                    f"metrics.counters[{name!r}] lacks value/delta")
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for name, entry in histograms.items():
                errors.extend(validate_histogram(
                    f"metrics.histograms[{name!r}]", entry))

    # hw is optional (only with a counter session), but when present the
    # derived fields follow the same absent-not-zero convention.
    hw = snap.get("hw")
    if hw is not None:
        _expect(errors, isinstance(hw, dict) and "backend" in hw,
                "hw present but lacks backend")
        if isinstance(hw, dict) and "achieved_frac" in hw:
            _expect(errors, "gbps" in hw and "peak_gbps" in hw,
                    "hw.achieved_frac without gbps/peak_gbps")
    return errors


def validate_histogram(label, entry):
    """Violations in one histogram entry: a positive count (empty
    histograms are absent, not zero), monotone percentiles, and buckets
    that sum to the count."""
    errors = []
    _expect(errors, isinstance(entry, dict), f"{label} is not an object")
    if not isinstance(entry, dict):
        return errors
    for key in ("count", "sum", "min", "max", "mean") + PERCENTILE_KEYS:
        _expect(errors, isinstance(entry.get(key), (int, float)),
                f"{label}.{key} missing or mistyped")
    _expect(errors, isinstance(entry.get("count"), int)
            and entry.get("count", 0) > 0,
            f"{label}.count is not a positive integer")
    quantiles = [entry.get(key) for key in PERCENTILE_KEYS]
    if all(isinstance(q, (int, float)) for q in quantiles):
        _expect(errors, all(a <= b for a, b in zip(quantiles, quantiles[1:])),
                f"{label} percentiles are not monotone "
                f"(p50..p999 = {quantiles})")
    buckets = entry.get("buckets")
    if isinstance(buckets, list) \
            and all(isinstance(p, list) and len(p) == 2 for p in buckets):
        _expect(errors, sum(p[1] for p in buckets) == entry.get("count"),
                f"{label}.buckets do not sum to count")
    else:
        errors.append(f"{label}.buckets is not a list of [index, count] "
                      f"pairs")
    return errors


def format_seconds(seconds):
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def progress_bar(fraction, width):
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def format_latency(seconds):
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def latency_lines(histograms):
    """Percentile lines for the task and phase time histograms."""
    if not isinstance(histograms, dict):
        return []
    timed = sorted((name, entry) for name, entry in histograms.items()
                   if name.startswith("phase.")
                   or name == "pipeline.task.seconds")
    if not timed:
        return []
    lines = ["latency:"]
    for name, entry in timed:
        if not isinstance(entry, dict):
            continue
        quantiles = "  ".join(
            f"{key} {format_latency(entry[key])}"
            for key in PERCENTILE_KEYS if key in entry)
        lines.append(f"  {name:<21.21} n={entry.get('count', 0):<7} "
                     f"{quantiles}")
    return lines


def counter_value(counters, name):
    """A counter's value from metrics.counters, 0 when absent."""
    entry = counters.get(name)
    return entry.get("value", 0) if isinstance(entry, dict) else 0


def plan_cache_lines(counters, gauges):
    """The engine's plan cache, from its engine.plan_cache.* metrics."""
    hits = counter_value(counters, "engine.plan_cache.hits")
    lookups = hits + counter_value(counters, "engine.plan_cache.misses")
    if lookups == 0:
        return []
    return [f"plan cache: {hits} hits / {lookups} lookups "
            f"({100.0 * hits / lookups:.0f}%), "
            f"{gauges.get('engine.plan_cache.size', 0):.0f} plans, "
            f"{counter_value(counters, 'engine.plan_cache.evictions')} "
            f"evictions"]


def select_lines(counters, gauges, histograms):
    """The ordering selector's tally, from its select.* metrics."""
    decisions = counter_value(counters, "select.decisions")
    if decisions == 0:
        return []
    version = gauges.get("select.model_version")
    regret = histograms.get("select.regret") or {}
    hits = counter_value(counters, "select.oracle_hits")
    lines = [f"select[v{'?' if version is None else f'{version:.0f}'}]: "
             f"{decisions} decisions, "
             f"{100.0 * hits / decisions:.0f}% oracle hits, "
             f"mean regret {100.0 * regret.get('mean', 0.0):.2f}%, "
             f"max {100.0 * regret.get('max', 0.0):.2f}%"]
    prefix = "select.picks."
    picks = ", ".join(
        f"{name[len(prefix):]} {count}"
        for name, count in sorted(
            ((name, counter_value(counters, name)) for name in counters
             if name.startswith(prefix)),
            key=lambda kv: -kv[1])
        if count > 0)
    if picks:
        lines.append(f"  picks: {picks}")
    amortize = histograms.get("select.amortize_calls") or {}
    lines.append(
        f"  amortizes: p50 {amortize.get('p50', 0.0):.0f} calls, "
        f"p90 {amortize.get('p90', 0.0):.0f}, "
        f"never {counter_value(counters, 'select.never_amortizes')}")
    return lines


def render(snap, width=78):
    """Returns the frame as a list of lines (shared by all display modes)."""
    run = snap.get("run", {})
    lines = []
    state = "running" if run.get("running") else "idle"
    lines.append(
        f"ordo study pid {snap.get('pid', '?')} — {state}, "
        f"up {format_seconds(snap.get('uptime_seconds', 0))}")

    total = run.get("total", 0)
    done = run.get("completed", 0) + run.get("failed", 0) \
        + run.get("resumed", 0)
    bar = progress_bar(run.get("fraction", 0.0), max(10, width - 30))
    lines.append(f"{bar} {done}/{total} ({100.0 * run.get('fraction', 0.0):.0f}%)")

    tally = (f"completed {run.get('completed', 0)}  "
             f"failed {run.get('failed', 0)}  "
             f"timeouts {run.get('timeouts', 0)}  "
             f"resumed {run.get('resumed', 0)}  "
             f"elapsed {format_seconds(run.get('elapsed_seconds', 0))}")
    if "eta_seconds" in run:
        tally += f"  eta {format_seconds(run['eta_seconds'])}"
    lines.append(tally)

    metrics = snap.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    lines.extend(plan_cache_lines(counters, gauges))
    lines.extend(select_lines(counters, gauges, histograms))

    hw = snap.get("hw")
    if isinstance(hw, dict):
        parts = [f"hw[{hw.get('backend', '?')}]"]
        if "ipc" in hw:
            parts.append(f"IPC {hw['ipc']:.2f}")
        if "llc_miss_rate" in hw:
            parts.append(f"LLC miss {100.0 * hw['llc_miss_rate']:.1f}%")
        if "gbps" in hw:
            parts.append(f"{hw['gbps']:.2f} GB/s")
        if "achieved_frac" in hw:
            parts.append(f"{100.0 * hw['achieved_frac']:.0f}% of "
                         f"{hw['peak_gbps']:.1f} GB/s peak")
        lines.append("  ".join(parts))

    lines.extend(latency_lines(histograms))

    workers = snap.get("workers") or []
    lines.append("")
    lines.append(f"in-flight workers ({len(workers)}/{run.get('workers', 0)}):")
    if not workers:
        lines.append("  (none)")
    for worker in sorted(workers, key=lambda w: w.get("slot", 0)):
        row = (f"  slot {worker.get('slot', '?'):>3}  "
               f"#{worker.get('task_index', '?'):<5} "
               f"{worker.get('matrix', '?'):<24.24} "
               f"{worker.get('phase', '?'):<9} "
               f"{format_seconds(worker.get('elapsed_seconds', 0)):>7}")
        if "deadline_margin_seconds" in worker:
            margin = worker["deadline_margin_seconds"]
            row += f"  deadline {'-' if margin < 0 else ''}" \
                   f"{format_seconds(abs(margin))}"
        lines.append(row)
    return lines


def plain_frame(args):
    snap = fetch(args)
    for line in render(snap):
        print(line)
    return snap


def watch_plain(args):
    while True:
        print()
        snap = plain_frame(args)
        if not snap.get("run", {}).get("running"):
            return
        time.sleep(args.interval)


def watch_curses(args):
    import curses

    def loop(screen):
        curses.curs_set(0)
        screen.timeout(int(args.interval * 1000))
        while True:
            try:
                snap = fetch(args)
                lines = render(snap, width=screen.getmaxyx()[1] - 2)
            except (OSError, ValueError) as e:
                lines = [f"ordo_top: snapshot unavailable: {e}"]
            screen.erase()
            max_rows = screen.getmaxyx()[0]
            for row, line in enumerate(lines[: max_rows - 1]):
                screen.addnstr(row, 0, line, screen.getmaxyx()[1] - 1)
            screen.refresh()
            if screen.getch() in (ord("q"), 27):  # q / ESC
                return

    curses.wrapper(loop)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--file", required=True, metavar="PATH",
                        help="read the heartbeat JSON at PATH")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one plain-text frame and exit")
    parser.add_argument("--check", action="store_true",
                        help="validate one snapshot against the schema and "
                             "exit 0/1 (CI gate)")
    parser.add_argument("--plain", action="store_true",
                        help="scrolling frames instead of curses")
    args = parser.parse_args()

    try:
        if args.check:
            snap = fetch(args)
            errors = validate(snap)
            for error in errors:
                print(f"ordo_top --check FAILED: {error}")
            if not errors:
                run = snap.get("run", {})
                print(f"ordo_top --check: snapshot valid "
                      f"(schema_version {SCHEMA_VERSION}, "
                      f"{run.get('completed', 0)}/"
                      f"{run.get('total', 0)} completed)")
            return 1 if errors else 0
        if args.once:
            plain_frame(args)
            return 0
        if args.plain or not sys.stdout.isatty():
            watch_plain(args)
            return 0
        try:
            watch_curses(args)
        except ImportError:
            watch_plain(args)
        return 0
    except OSError as e:
        print(f"ordo_top: cannot read snapshot: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
