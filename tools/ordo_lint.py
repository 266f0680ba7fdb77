#!/usr/bin/env python3
"""ordo_lint: repo-specific static checks the generic tools don't cover.

Rules (see docs/ARCHITECTURE.md "Correctness tooling" for rationale):

  random         src/ only. No rand()/srand()/std::random_device: every
                 random choice in the library must flow through the seeded,
                 deterministic generators (reproducible studies).
  thread         src/ only. No naked std::thread outside the worker pool
                 (src/pipeline/fork_join.*), the deadline watchdog
                 (src/pipeline/cancel.*) and the status heartbeat writer
                 (src/obs/status/heartbeat.*), and no pthread_create
                 anywhere: concurrency lives behind the one pool so error
                 isolation, cancellation and TSan coverage stay centralised
                 (the watchdog and heartbeat service threads are the
                 deliberate exceptions).
  io             src/ only, src/obs/ and src/core/gnuplot.* exempt. No
                 printf/std::cout/std::cerr console output: the library
                 reports through ordo::obs (snprintf/vsnprintf formatting
                 into buffers is fine).
  omp            src/ only, no exemption. No #pragma omp: every parallel
                 loop, the SpMV kernels' included, runs on the one worker
                 pool (pipeline/fork_join.hpp), so the library has one
                 thread system for the budget, TSan and the traces to see.
  socket         src/ only, no exemption. No raw POSIX sockets
                 (::socket/::bind/::listen/::accept/::connect or the
                 <sys/socket.h> family): the library serves nothing over a
                 network; live status leaves the process only through the
                 heartbeat file.
  mmap           src/ only. No raw memory mapping (::mmap/::munmap/
                 ::ftruncate or <sys/mman.h>): every matrix lives in RAM
                 as CsrMatrix arrays, so the library maps no memory.
  float-eq       src/ only. No == / != on floating-point values (float
                 literals, or identifiers declared double/float in the same
                 file). Use explicit tolerances — or suppress where exact
                 equality is the point (bit-identity contracts).
  pragma-once    Every header must use #pragma once (matches the tree; no
                 include guards to drift).
  include-order  Within each contiguous #include block, paths must be
                 sorted (the prevailing style: own header first, then a
                 sorted <system> block, then a sorted "project" block).

Suppressions:
  // ordo-lint: allow(rule)        on the offending line
  // ordo-lint: allow-file(rule)   anywhere in the file, whole-file

Usage:
  tools/ordo_lint.py [paths...]   lint (default: src tests bench tools)
  tools/ordo_lint.py --self-test  verify every rule fires on a seeded
                                  violation and honours suppressions

Exit status: 0 clean, 1 violations (or a failed self-test).
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ["src", "tests", "bench", "tools"]
CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}
HEADER_EXTENSIONS = {".hpp", ".hh", ".h"}

ALLOW_LINE_RE = re.compile(r"//\s*ordo-lint:\s*allow\(([\w,\s-]+)\)")
ALLOW_FILE_RE = re.compile(r"//\s*ordo-lint:\s*allow-file\(([\w,\s-]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments so rule regexes only
    see code. Block comments are handled line-locally (good enough for this
    tree, which does not use multi-line /* */ in code positions)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            break
        if c == '/' and i + 1 < n and line[i + 1] == '*':
            end = line.find("*/", i + 2)
            if end == -1:
                break
            out.append(" " * (end + 2 - i))
            i = end + 2
            continue
        if c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def rel(path):
    try:
        return os.path.relpath(path, REPO_ROOT)
    except ValueError:
        return path


def in_src(relpath):
    return relpath.startswith("src" + os.sep)


# --- simple token rules ----------------------------------------------------

RANDOM_RE = re.compile(r"\bstd::random_device\b|(?<![\w:])s?rand\s*\(")
THREAD_RE = re.compile(r"\bstd::thread\b")
PTHREAD_CREATE_RE = re.compile(r"\bpthread_create\b")
CHRONO_RE = re.compile(r"\bstd::chrono\b")
IO_RE = re.compile(
    r"\bstd::c(?:out|err|log)\b|(?<![\w:])(?:f|v|vf)?printf\s*\(|(?<![\w:])f?puts\s*\(")
OMP_RE = re.compile(r"#\s*pragma\s+omp\b")
SOCKET_RE = re.compile(
    r"::\s*(?:socket|bind|listen|accept|connect)\s*\("
    r"|<sys/socket\.h>|<netinet/|<arpa/inet\.h>")
MMAP_RE = re.compile(
    r"::\s*(?:mmap|munmap|ftruncate)\s*\(|<sys/mman\.h>")


def io_exempt(relpath):
    if relpath.startswith(os.path.join("src", "obs") + os.sep):
        return True
    return os.path.basename(relpath).startswith("gnuplot.")


def thread_exempt(relpath):
    # The worker pool owns the threads that run ordo work; the deadline
    # watchdog and the heartbeat writer each need one service thread of
    # their own (they cannot run on pool workers: they must keep running
    # while every worker is busy).
    pipeline = os.path.join("src", "pipeline") + os.sep
    status = os.path.join("src", "obs", "status") + os.sep
    return relpath in {pipeline + name for name in (
        "fork_join.hpp", "fork_join.cpp", "cancel.hpp", "cancel.cpp")} | {
        status + name for name in ("heartbeat.hpp", "heartbeat.cpp")}


def chrono_exempt(relpath):
    # obs owns the clocks (Stopwatch, trace time base) and the pipeline's
    # deadline scheduling legitimately speaks std::chrono; everything else
    # should time through obs::Stopwatch so timing stays in one place.
    return relpath.startswith(
        (os.path.join("src", "obs") + os.sep,
         os.path.join("src", "pipeline") + os.sep))


# --- float-eq --------------------------------------------------------------

FLOAT_LITERAL_RE = re.compile(r"(?<![\w.])(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?(?![\w.])")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(?:[&*]\s*)?([A-Za-z_]\w*)")
EQ_CMP_RE = re.compile(r"(?<![<>!=&|^+\-*/%])([!=])=(?![=])")
OPERAND_TAIL_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
OPERAND_HEAD_RE = re.compile(r"^\s*([A-Za-z_]\w*)")


def collect_float_identifiers(code):
    return {m.group(1) for m in FLOAT_DECL_RE.finditer(code)}


def float_eq_violations(code, float_names):
    """True when a == / != on this line has a float-typed operand: a float
    literal on either side, or an identifier declared double/float in this
    file. A heuristic, not a type checker — suppress false positives with
    ordo-lint: allow(float-eq)."""
    for m in EQ_CMP_RE.finditer(code):
        left, right = code[: m.start()], code[m.end():]
        operands = []
        tail = OPERAND_TAIL_RE.search(left)
        if tail:
            operands.append(tail.group(1))
        head = OPERAND_HEAD_RE.search(right)
        if head:
            operands.append(head.group(1))
        sides_with_literal = (
            bool(FLOAT_LITERAL_RE.search(left[-24:]))
            and left.rstrip().endswith(tuple("0123456789.fF"))
        ) or bool(FLOAT_LITERAL_RE.match(right.lstrip()))
        if sides_with_literal or any(name in float_names for name in operands):
            return True
    return False


# --- include order ---------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]')


def include_order_violations(path, lines):
    violations = []
    block = []  # (line_number, sort_key, raw_path)
    def flush():
        nonlocal block
        for k in range(1, len(block)):
            if block[k][1] < block[k - 1][1]:
                violations.append(
                    Violation(path, block[k][0], "include-order",
                              f'"{block[k][2]}" sorts before "{block[k - 1][2]}"'
                              " — keep each include block sorted"))
                break
        block = []

    for lineno, line in enumerate(lines, 1):
        m = INCLUDE_RE.match(line)
        if m:
            block.append((lineno, m.group(2).lower(), m.group(2)))
        else:
            flush()
    flush()
    return violations


# --- driver ----------------------------------------------------------------

def lint_file(path):
    relpath = rel(path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Violation(relpath, 0, "io-error", str(e))]

    file_allows = set()
    for line in lines:
        m = ALLOW_FILE_RE.search(line)
        if m:
            file_allows.update(r.strip() for r in m.group(1).split(","))

    code_lines = [strip_comments_and_strings(line) for line in lines]
    src = in_src(relpath)
    # Identifiers declared double/float, tracked per top-level scope: a `}`
    # in column 0 ends a function/class, so its locals and parameters stop
    # tainting comparisons elsewhere in the file (declarations precede uses).
    float_names = set()

    violations = []

    def check(lineno, rule, hit, message):
        if not hit or rule in file_allows:
            return
        m = ALLOW_LINE_RE.search(lines[lineno - 1])
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            return
        violations.append(Violation(relpath, lineno, rule, message))

    for lineno, code in enumerate(code_lines, 1):
        if code.startswith("}"):
            float_names = set()
        float_names |= collect_float_identifiers(code)
        if src:
            check(lineno, "random", RANDOM_RE.search(code),
                  "non-deterministic RNG in library code — use the seeded "
                  "generators (reproducible studies)")
            if not thread_exempt(relpath):
                check(lineno, "thread", THREAD_RE.search(code),
                      "naked std::thread outside the worker pool, the "
                      "watchdog and the heartbeat writer — run work "
                      "through the pool (pipeline/fork_join.hpp)")
            check(lineno, "thread", PTHREAD_CREATE_RE.search(code),
                  "pthread_create — threads that run ordo work come from "
                  "the worker pool (pipeline/fork_join.hpp)")
            check(lineno, "socket", SOCKET_RE.search(code),
                  "raw socket call — the library serves nothing over a "
                  "network; live status goes through the heartbeat file")
            check(lineno, "mmap", MMAP_RE.search(code),
                  "raw memory mapping — matrices live in RAM as "
                  "CsrMatrix arrays")
            if not io_exempt(relpath):
                check(lineno, "io", IO_RE.search(code),
                      "console I/O in library code — report through "
                      "ordo::obs (logf/metrics)")
            check(lineno, "omp", OMP_RE.search(code),
                  "#pragma omp — run parallel loops on the worker pool "
                  "(pipeline/fork_join.hpp)")
            if not chrono_exempt(relpath):
                check(lineno, "chrono", CHRONO_RE.search(code),
                      "raw std::chrono outside src/obs/ and src/pipeline/ — "
                      "time through obs::Stopwatch / trace_now_us")
            check(lineno, "float-eq", float_eq_violations(code, float_names),
                  "floating-point == / != — compare with a tolerance, or "
                  "suppress where exact equality is the contract")

    if os.path.splitext(path)[1] in HEADER_EXTENSIONS:
        if "pragma-once" not in file_allows and not any(
                re.match(r"\s*#\s*pragma\s+once\b", line) for line in lines):
            violations.append(
                Violation(relpath, 1, "pragma-once",
                          "header is missing #pragma once"))

    if "include-order" not in file_allows:
        for v in include_order_violations(relpath, lines):
            m = ALLOW_LINE_RE.search(lines[v.line - 1])
            if not (m and "include-order" in
                    {r.strip() for r in m.group(1).split(",")}):
                violations.append(v)

    return violations


def collect_files(paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                    files.append(os.path.join(dirpath, name))
    return files


def run_lint(paths):
    violations = []
    for path in collect_files(paths):
        violations.extend(lint_file(path))
    for v in violations:
        print(v)
    return 1 if violations else 0


# --- self test -------------------------------------------------------------

SEEDED_BAD = """\
#include <vector>
#include <random>

double jitter() {
  std::random_device rd;
  return rand() / 100.0;
}

void report(double x) {
  std::thread worker([] {});
  auto t0 = std::chrono::steady_clock::now();
  if (x == 1.0) printf("hit\\n");
  double y = x;
  if (y != x) return;
}

void scale(std::vector<double>& v) {
#pragma omp parallel for
  for (auto& x : v) x *= 2.0;
}

int open_backdoor() {
  return ::socket(2, 1, 0);
}

void* map_scratch(int fd, long n) {
  return ::mmap(0, n, 3, 2, fd, 0);
}
"""

# The thread rule's exemption covers the pool's own files, nothing else in
# src/pipeline/, and never pthread_create.
SEEDED_SECOND_SCHEDULER = """\
void spawn() {
  std::thread helper([] {});
}
"""

SEEDED_POOL = """\
void start() {
  std::thread worker([] {});
}

void start_raw(pthread_t* thread) {
  pthread_create(thread, nullptr, nullptr, nullptr);
}
"""

# Neither does the socket rule, src/obs/status/ included; there the thread
# rule exempts only the heartbeat writer's files.
SEEDED_STATUS = """\
int serve() {
  std::thread acceptor([] {});
  return ::socket(2, 1, 0);
}
"""

# The omp rule has no exemption: the kernels' own directory included.
SEEDED_KERNEL = """\
void spmv_rows(double* y, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) y[i] = 0.0;
}
"""

SEEDED_SUPPRESSED = """\
#pragma once
#include <vector>
#include <random>  // ordo-lint: allow(include-order)

inline bool same(double a, double b) {
  return a == b;  // ordo-lint: allow(float-eq)
}
"""


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        srcdir = os.path.join(tmp, "src")
        os.makedirs(srcdir)
        bad = os.path.join(srcdir, "seeded_bad.cpp")
        with open(bad, "w", encoding="utf-8") as f:
            f.write(SEEDED_BAD)
        hdr = os.path.join(srcdir, "seeded_missing_pragma.hpp")
        with open(hdr, "w", encoding="utf-8") as f:
            f.write("inline int one() { return 1; }\n")
        ok = os.path.join(srcdir, "seeded_suppressed.hpp")
        with open(ok, "w", encoding="utf-8") as f:
            f.write(SEEDED_SUPPRESSED)
        pipeline = os.path.join(srcdir, "pipeline")
        os.makedirs(pipeline)
        second = os.path.join(pipeline, "seeded_scheduler.cpp")
        with open(second, "w", encoding="utf-8") as f:
            f.write(SEEDED_SECOND_SCHEDULER)
        pool = os.path.join(pipeline, "fork_join.cpp")
        with open(pool, "w", encoding="utf-8") as f:
            f.write(SEEDED_POOL)

        status_dir = os.path.join(srcdir, "obs", "status")
        os.makedirs(status_dir)
        listener = os.path.join(status_dir, "seeded_listener.cpp")
        with open(listener, "w", encoding="utf-8") as f:
            f.write(SEEDED_STATUS)

        spmv = os.path.join(srcdir, "spmv")
        os.makedirs(spmv)
        kernel = os.path.join(spmv, "seeded_kernel.cpp")
        with open(kernel, "w", encoding="utf-8") as f:
            f.write(SEEDED_KERNEL)

        global REPO_ROOT
        saved_root = REPO_ROOT
        REPO_ROOT = tmp
        try:
            bad_violations = lint_file(bad)
            hdr_violations = lint_file(hdr)
            ok_violations = lint_file(ok)
            second_violations = lint_file(second)
            pool_violations = lint_file(pool)
            kernel_violations = lint_file(kernel)
            status_violations = lint_file(listener)
        finally:
            REPO_ROOT = saved_root

        fired = {v.rule for v in bad_violations}
        for rule in ("random", "thread", "io", "omp", "chrono", "socket",
                     "mmap", "float-eq", "include-order"):
            if rule not in fired:
                failures.append(f"rule '{rule}' did not fire on seeded code")
        if "pragma-once" not in {v.rule for v in hdr_violations}:
            failures.append("rule 'pragma-once' did not fire on seeded header")
        if ok_violations:
            failures.extend(
                f"suppression ignored: {v}" for v in ok_violations)
        if [v.line for v in second_violations if v.rule == "thread"] != [2]:
            failures.append("rule 'thread' did not fire on std::thread in "
                            "src/pipeline/ outside the pool's files")
        if [v.line for v in pool_violations if v.rule == "thread"] != [6]:
            failures.append("rule 'thread' did not fire on pthread_create "
                            "alone in the pool's file")
        if [(v.line, v.rule) for v in status_violations] != [
                (2, "thread"), (3, "socket")]:
            failures.append("rules 'thread' and 'socket' did not fire in "
                            "src/obs/status/ outside the heartbeat writer")
        if [v.line for v in kernel_violations if v.rule == "omp"] != [2]:
            failures.append("rule 'omp' did not fire on #pragma omp in "
                            "src/spmv/")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}")
        return 1
    print("ordo_lint self-test: all rules fire and suppressions hold")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS,
                        help="files or directories relative to the repo root")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations in a tempdir and verify every "
                             "rule fires and suppressions hold")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.paths)


if __name__ == "__main__":
    sys.exit(main())
