#!/usr/bin/env python3
"""ordo_analyze: deep cross-file static pass over the concurrency and
hot-path contracts that single-line lint (tools/ordo_lint.py) cannot see.

The analyzer parses the tree with a small brace-automaton (namespaces,
classes, function bodies) and runs seven rules on top of it. It is
deliberately heuristic — it reads the annotation conventions of
src/core/thread_safety.hpp rather than real C++ semantics — and it is
tuned so a clean tree stays clean: every rule either fires on a real
defect or is silenced by an `// ordo-analyze: allow(rule) <why>` comment
that carries its justification inline.

Rules (see docs/ARCHITECTURE.md "Static analysis" for rationale):

  lock-order      Cross-file. Builds the mutex acquisition-order graph from
                  every `MutexLock` site (lexical nesting, ORDO_REQUIRES
                  preconditions, and one level of direct calls) and reports
                  any cycle — a deadlock the thread-safety annotations
                  alone cannot express.
  memory-order    Every std::atomic operation (.load/.store/.exchange/
                  .fetch_*/.compare_exchange_*) must spell its
                  std::memory_order explicitly; the argument list is parsed
                  across line breaks. Seq-cst-by-default hides intent and
                  costs fences on the hot path.
  relaxed-note    Every memory_order_relaxed use must carry a justification
                  comment on the same line or within the 4 lines above it:
                  relaxed is only correct for reasons the code cannot show.
  timed-region    Inside a Stopwatch window (declaration to first
                  .seconds()/.millis()/.micros() read), a CounterScope
                  window (construction to .stop()) or an obs::Phase that
                  opens one (.hw(...) on its declaration line, to
                  .close()), flags logging, locking,
                  allocation and string construction — overhead that lands
                  inside the measured quantity.
  cancel-poll     Call-graph reachability: run_matrix_study must reach
                  nd_ordering, partition_graph and partition_hypergraph,
                  and each of those subtrees (and run_matrix_study itself)
                  must reach a poll_cancelled() call, so the watchdog can
                  stop the three super-linear reordering paths.
  guard-coverage  In the annotated dirs, any class holding an ordo::Mutex
                  must annotate every other data member ORDO_GUARDED_BY /
                  ORDO_PT_GUARDED_BY (atomics, condition variables,
                  threads, once-flags and nested Mutexes are exempt by
                  type) or justify the exception.
  raw-mutex       In the annotated dirs, no std::mutex / std::lock_guard /
                  std::unique_lock / std::scoped_lock tokens: all locking
                  flows through ordo::Mutex + ordo::MutexLock so the clang
                  -Wthread-safety pass sees it (src/core/thread_safety.hpp
                  itself is the one sanctioned wrapper site).
  bare-allow      An `ordo-analyze: allow(...)` comment with no inline
                  justification text. A bare allow suppresses nothing.

Suppressions:
  // ordo-analyze: allow(rule) <one-line justification>
  on the offending line, or on one of the 2 lines above a multi-line
  declaration. The justification is mandatory (rule bare-allow).

Usage:
  tools/ordo_analyze.py [paths...]   analyze (default: src)
  tools/ordo_analyze.py --self-test  verify every rule fires on a seeded
                                     violation and honours suppressions

Exit status: 0 clean, 1 violations (or a failed self-test).
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ["src"]
CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Directories whose locking is required to flow through the annotated
# ordo::Mutex wrappers (raw-mutex) and whose mutex-holding classes must be
# fully annotated (guard-coverage).
ANNOTATED_DIRS = ("src/pipeline", "src/engine", "src/obs", "src/select")

ALLOW_RE = re.compile(r"//\s*ordo-analyze:\s*allow\(([\w,\s-]+)\)\s*(.*)")
MIN_JUSTIFICATION = 10  # characters of inline why-text an allow must carry

ALL_RULES = [
    "lock-order",
    "memory-order",
    "relaxed-note",
    "timed-region",
    "cancel-poll",
    "guard-coverage",
    "raw-mutex",
    "bare-allow",
]


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path):
    try:
        return os.path.relpath(path, REPO_ROOT)
    except ValueError:
        return path


def in_annotated_dir(relpath):
    posix = relpath.replace(os.sep, "/")
    return any(posix == d or posix.startswith(d + "/") for d in ANNOTATED_DIRS)


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments so rule regexes only
    see code. Block comments are handled line-locally (good enough for this
    tree, which does not use multi-line /* */ in code positions)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
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


class SourceFile:
    """One parsed file: raw lines, code-only lines, and allow() sites."""

    def __init__(self, path, text):
        self.path = path
        self.rel = rel(path)
        self.raw = text.splitlines()
        self.code = [strip_comments_and_strings(l) for l in self.raw]
        # line number (1-based) -> (set of allowed rules, justification)
        self.allows = {}
        for idx, line in enumerate(self.raw):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.allows[idx + 1] = (rules, m.group(2).strip())

    def allowed(self, lineno, rule, lookback=0):
        """True if an allow(rule) with a justification covers `lineno` (the
        line itself or up to `lookback` lines above it)."""
        for ln in range(max(1, lineno - lookback), lineno + 1):
            entry = self.allows.get(ln)
            if entry and rule in entry[0] and len(entry[1]) >= MIN_JUSTIFICATION:
                return True
        return False


# ---------------------------------------------------------------------------
# Structural parse: classes, data members, function bodies.
# ---------------------------------------------------------------------------

KEYWORD_HEADS = {
    "if", "for", "while", "switch", "catch", "do", "else", "return",
    "sizeof", "alignof", "decltype", "static_assert", "new", "throw",
}
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:ORDO_\w+\s*\([^)]*\)\s*)*(\w+)\b(?!\s*;)")
MUTEX_MEMBER_RE = re.compile(r"\b(?:ordo::)?Mutex\s+(\w+)\s*;")
MEMBER_EXEMPT_TYPES_RE = re.compile(
    r"std::atomic\b|std::condition_variable\b|std::thread\b|"
    r"std::once_flag\b|\bMutex\b")
GUARDED_RE = re.compile(r"ORDO_(?:PT_)?GUARDED_BY\s*\(")
REQUIRES_RE = re.compile(r"ORDO_REQUIRES\s*\(([^)]*)\)")


class ClassInfo:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file          # SourceFile
        self.line = line
        self.mutexes = []         # member names of type ordo::Mutex
        self.members = []         # (stmt_text, first_lineno) data members


class FuncInfo:
    def __init__(self, name, qualclass, file, line):
        self.name = name
        self.qualclass = qualclass  # enclosing/qualifying class name or None
        self.file = file            # SourceFile
        self.line = line
        self.requires = []          # ORDO_REQUIRES expressions (signature)
        self.signature = ""         # full signature text (for param types)
        self.body = []              # (lineno, code_line)


def classify_pending(pending):
    """What does the '{' we just hit open? Returns ('namespace'|'class'|
    'enum'|'func'|'block', name-or-None, requires-list)."""
    text = pending.strip()
    if not text:
        return ("block", None, [])
    if re.search(r"\bnamespace\b", text) and "(" not in text:
        return ("namespace", None, [])
    if re.search(r"\benum\b", text):
        return ("enum", None, [])
    m = CLASS_HEAD_RE.search(text)
    if m and "=" not in text.split("{")[0] and "(" not in text[: m.start()]:
        # `struct X {` / `class ORDO_CAPABILITY("m") X {` — but not
        # `Type x = SomeStruct{...}` expressions.
        if not re.search(r"\)\s*$", text):
            return ("class", m.group(1), [])
    paren = text.find("(")
    if paren > 0 and "=" not in text[:paren]:
        head = text[:paren].rstrip()
        name_m = re.search(r"([~\w]+)\s*$", head)
        if name_m and name_m.group(1) not in KEYWORD_HEADS:
            name = name_m.group(1)
            qual_m = re.search(r"(\w+)\s*::\s*[~\w]+\s*$", head)
            qual = qual_m.group(1) if qual_m else None
            requires = REQUIRES_RE.findall(text)
            return ("func", name, requires, qual)
    return ("block", None, [])


def parse_structure(files):
    """Walks every file's braces once, producing the class table and the
    function index (file-scope functions and inline class methods alike)."""
    classes = {}   # name -> ClassInfo (last definition wins; names unique)
    functions = {}  # name -> [FuncInfo, ...]

    for f in files:
        # Context stack entries: [kind, name, class_obj_or_func_obj]
        stack = []
        pending = ""
        pending_start = None
        member_start = None
        member_text = ""

        def top_kind():
            return stack[-1][0] if stack else "global"

        for idx, code in enumerate(f.code):
            lineno = idx + 1
            if code.lstrip().startswith("#"):
                # Preprocessor lines carry no structure and would pollute
                # the pending-statement text (e.g. #define parens).
                for kind, _name, obj in stack:
                    if kind == "func":
                        obj.body.append((lineno, ""))
                        break
                continue
            i = 0
            while i < len(code):
                c = code[i]
                if c == "{":
                    info = classify_pending(pending)
                    kind = info[0]
                    if kind == "func" and top_kind() in (
                            "global", "namespace", "class"):
                        qual = info[3]
                        if qual is None and top_kind() == "class":
                            qual = stack[-1][1]
                        fn = FuncInfo(info[1], qual, f,
                                      pending_start or lineno)
                        fn.requires = info[2]
                        fn.signature = pending.strip()
                        functions.setdefault(fn.name, []).append(fn)
                        stack.append(["func", fn.name, fn])
                    elif kind == "class" and top_kind() in (
                            "global", "namespace", "class"):
                        cls = ClassInfo(info[1], f, pending_start or lineno)
                        classes[cls.name] = cls
                        stack.append(["class", cls.name, cls])
                        member_text, member_start = "", None
                    elif kind == "namespace" and top_kind() in (
                            "global", "namespace"):
                        stack.append(["namespace", None, None])
                    else:
                        stack.append(["block", None, None])
                    pending = ""
                    pending_start = None
                elif c == "}":
                    if stack:
                        stack.pop()
                    pending = ""
                    pending_start = None
                    member_text, member_start = "", None
                elif c == ";":
                    if top_kind() == "class" and member_text.strip():
                        cls = stack[-1][2]
                        stmt = member_text.strip()
                        cls.members.append((stmt, member_start or lineno))
                        mm = MUTEX_MEMBER_RE.search(stmt + ";")
                        if mm:
                            cls.mutexes.append(mm.group(1))
                    pending = ""
                    pending_start = None
                    member_text, member_start = "", None
                else:
                    if pending.strip() == "" and not c.isspace():
                        pending_start = lineno
                    pending += c
                    if top_kind() == "class":
                        if member_text.strip() == "" and not c.isspace():
                            member_start = lineno
                        member_text += c
                i += 1
            # Record body lines for every function on the stack (innermost
            # functions see their own lines; an enclosing function also owns
            # its nested blocks' lines, which is what the rules want).
            for kind, _name, obj in stack:
                if kind == "func":
                    obj.body.append((lineno, code))
                    break  # only the outermost function collects
            pending += " "
            if top_kind() == "class" and member_text:
                member_text += " "
    return classes, functions


# ---------------------------------------------------------------------------
# Rule: guard-coverage
# ---------------------------------------------------------------------------

ACCESS_LABEL_RE = re.compile(r"\b(?:public|private|protected)\s*:")


def check_guard_coverage(classes, violations):
    for cls in classes.values():
        if not cls.mutexes or not in_annotated_dir(cls.file.rel):
            continue
        for stmt, lineno in cls.members:
            text = ACCESS_LABEL_RE.sub("", stmt).strip()
            if not text:
                continue
            head = text.split()[0]
            if head in ("using", "typedef", "friend", "template", "static",
                        "constexpr", "enum", "class", "struct", "operator"):
                continue
            # Members are declared with brace/default/no init in this tree,
            # so any parenthesis marks a function declaration — except the
            # parens of the ORDO_* attribute macros themselves.
            bare = re.sub(r"ORDO_\w+\s*\([^)]*\)", "", text)
            if "(" in bare:
                continue
            if MEMBER_EXEMPT_TYPES_RE.search(text):
                continue
            if GUARDED_RE.search(stmt):
                continue
            if cls.file.allowed(lineno, "guard-coverage", lookback=2):
                continue
            name_m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=.*|\{.*\})?$",
                               text)
            member = name_m.group(1) if name_m else text
            violations.append(Violation(
                cls.file.rel, lineno, "guard-coverage",
                f"member '{member}' of mutex-holding class '{cls.name}' has "
                f"no ORDO_GUARDED_BY annotation (annotate it, or justify "
                f"with // ordo-analyze: allow(guard-coverage) <why>)"))


# ---------------------------------------------------------------------------
# Rule: raw-mutex
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b|std::lock_guard\b|"
    r"std::unique_lock\b|std::scoped_lock\b")


def check_raw_mutex(f, violations):
    if not in_annotated_dir(f.rel):
        return
    for idx, code in enumerate(f.code):
        lineno = idx + 1
        if RAW_MUTEX_RE.search(code):
            if f.allowed(lineno, "raw-mutex", lookback=1):
                continue
            violations.append(Violation(
                f.rel, lineno, "raw-mutex",
                "raw std::mutex/lock types are invisible to -Wthread-safety; "
                "use ordo::Mutex + ordo::MutexLock (core/thread_safety.hpp)"))


# ---------------------------------------------------------------------------
# Rule: memory-order (multi-line aware) and relaxed-note
# ---------------------------------------------------------------------------

ATOMIC_OP_RE = re.compile(
    r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set|clear|wait|notify_one|notify_all)\s*\(")
# Ops whose default argument list may legitimately be empty of orders only
# if an order token appears; notify_* take none and are skipped.
ORDERLESS_OPS = {"notify_one", "notify_all"}
COMMENT_RE = re.compile(r"//\s*\S")


def collect_call_args(f, start_idx, open_col, max_lines=8):
    """Returns the argument text of a call whose '(' sits at
    f.code[start_idx][open_col], following line breaks."""
    depth = 0
    parts = []
    for idx in range(start_idx, min(start_idx + max_lines, len(f.code))):
        line = f.code[idx]
        begin = open_col if idx == start_idx else 0
        for col in range(begin, len(line)):
            c = line[col]
            if c == "(":
                depth += 1
                if depth == 1:
                    continue
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(parts)
            if depth >= 1:
                parts.append(c)
        parts.append(" ")
    return "".join(parts)  # unbalanced: give the rule what we saw


def check_memory_order(f, violations):
    for idx, code in enumerate(f.code):
        lineno = idx + 1
        for m in ATOMIC_OP_RE.finditer(code):
            op = m.group(1)
            if op in ORDERLESS_OPS:
                continue
            # Only lines that plausibly act on an atomic: the receiver ends
            # in an identifier / ] / ) right before the dot.
            if m.start() == 0 or not re.search(r"[\w\])]$",
                                               code[: m.start()]):
                continue
            args = collect_call_args(f, idx, m.end() - 1)
            if "memory_order" in args:
                continue
            # `clear`/`wait`/`test_and_set` on non-atomics (containers,
            # condvars) are everyday C++; only hold them to the rule when
            # an order is plainly intended, i.e. never bare.
            if op in ("clear", "wait", "test_and_set"):
                continue
            if f.allowed(lineno, "memory-order"):
                continue
            violations.append(Violation(
                f.rel, lineno, "memory-order",
                f"atomic .{op}() without an explicit std::memory_order "
                f"argument (seq_cst by default hides intent and fences the "
                f"hot path)"))


def check_relaxed_note(f, violations):
    for idx, raw in enumerate(f.raw):
        lineno = idx + 1
        if "memory_order_relaxed" not in f.code[idx]:
            continue
        has_note = bool(COMMENT_RE.search(raw))
        if not has_note:
            for back in range(1, 5):
                j = idx - back
                if j < 0:
                    break
                if COMMENT_RE.search(f.raw[j]):
                    has_note = True
                    break
        if not has_note:
            # A comment that says "relaxed" earlier in the same block covers
            # a whole batch of tallies (stats counters, snapshot readers);
            # the scan stops at the head or end of the enclosing function.
            for back in range(1, 61):
                j = idx - back
                if j < 0:
                    break
                raw_above = f.raw[j]
                if COMMENT_RE.search(raw_above) and "relax" in \
                        raw_above.lower():
                    has_note = True
                    break
                code_above = f.code[j].rstrip()
                if raw_above.startswith("}"):
                    break
                if raw_above[:1].strip() and code_above.endswith("{"):
                    break
        if has_note:
            continue
        if f.allowed(lineno, "relaxed-note"):
            continue
        violations.append(Violation(
            f.rel, lineno, "relaxed-note",
            "memory_order_relaxed without a justification comment on the "
            "line or within the 4 lines above — say why relaxed is safe"))


# ---------------------------------------------------------------------------
# Rule: timed-region
# ---------------------------------------------------------------------------

STOPWATCH_DECL_RE = re.compile(r"\b(?:obs::)?Stopwatch\s+(\w+)\s*;")
SCOPE_DECL_RE = re.compile(r"\b(?:obs::hw::)?CounterScope\s+(\w+)\s*\(")
PHASE_HW_DECL_RE = re.compile(r"\b(?:obs::)?Phase\s+(\w+)\s*\(.*\.hw\s*\(")
TIMED_FLAGS = [
    ("logging", re.compile(r"\blogf\s*\(|\bf?printf\s*\(|std::cout\b|"
                           r"std::cerr\b")),
    ("locking", re.compile(r"\bMutexLock\b|std::lock_guard\b|"
                           r"std::unique_lock\b|\.lock\s*\(\s*\)")),
    ("allocation", re.compile(r"\bnew\s+\w|\bmake_unique\s*<|"
                              r"\bmake_shared\s*<|\bmalloc\s*\(|"
                              r"\bcalloc\s*\(")),
    ("string-build", re.compile(r"std::to_string\s*\(|std::ostringstream\b|"
                                r"\bstd::string\s+\w+\s*[=({]")),
]


def brace_delta(code):
    return code.count("{") - code.count("}")


def scan_timed_region(f, start_idx, end_re, violations):
    """Flags overhead between `start_idx` (exclusive) and the first line
    matching `end_re` (exclusive) or the close of the declaring scope."""
    depth = brace_delta(f.code[start_idx])
    for idx in range(start_idx + 1, len(f.code)):
        code = f.code[idx]
        if end_re.search(code):
            return
        depth += brace_delta(code)
        if depth < 0:
            return
        lineno = idx + 1
        for label, pattern in TIMED_FLAGS:
            if pattern.search(code):
                if f.allowed(lineno, "timed-region", lookback=1):
                    continue
                violations.append(Violation(
                    f.rel, lineno, "timed-region",
                    f"{label} inside a timed region (started at "
                    f"{f.rel}:{start_idx + 1}) — it lands inside the "
                    f"measured quantity; hoist it out or read the clock "
                    f"first"))


def check_timed_region(f, violations):
    for idx, code in enumerate(f.code):
        m = STOPWATCH_DECL_RE.search(code)
        if m:
            var = re.escape(m.group(1))
            end_re = re.compile(
                rf"\b{var}\s*\.\s*(?:seconds|millis|micros)\s*\(")
            scan_timed_region(f, idx, end_re, violations)
        m = SCOPE_DECL_RE.search(code)
        if m:
            var = re.escape(m.group(1))
            end_re = re.compile(rf"\b{var}\s*\.\s*stop\s*\(")
            scan_timed_region(f, idx, end_re, violations)
        m = PHASE_HW_DECL_RE.search(code)
        if m:
            var = re.escape(m.group(1))
            end_re = re.compile(rf"\b{var}\s*\.\s*close\s*\(")
            scan_timed_region(f, idx, end_re, violations)


# ---------------------------------------------------------------------------
# Rule: cancel-poll
# ---------------------------------------------------------------------------

CANCEL_ROOT = "run_matrix_study"
CANCEL_TARGETS = ("nd_ordering", "partition_graph", "partition_hypergraph")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def body_calls(fn, functions):
    calls = set()
    for _lineno, code in fn.body:
        for m in CALL_RE.finditer(code):
            name = m.group(1)
            if name in functions and name != fn.name:
                calls.add(name)
    return calls


def reachable_from(root, functions):
    seen = set()
    frontier = [root]
    while frontier:
        name = frontier.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for fn in functions[name]:
            frontier.extend(body_calls(fn, functions))
    return seen


def subtree_polls(root, functions):
    for name in reachable_from(root, functions):
        for fn in functions.get(name, []):
            for _lineno, code in fn.body:
                if "poll_cancelled" in code:
                    return True
    return False


def check_cancel_poll(functions, violations):
    if CANCEL_ROOT not in functions:
        return  # partial-tree run; the rule only means something repo-wide
    root_fn = functions[CANCEL_ROOT][0]
    reach = reachable_from(CANCEL_ROOT, functions)

    def report(fn, message):
        if fn.file.allowed(fn.line, "cancel-poll", lookback=1):
            return
        violations.append(Violation(fn.file.rel, fn.line, "cancel-poll",
                                    message))

    if not any("poll_cancelled" in code for _l, code in root_fn.body):
        report(root_fn,
               f"{CANCEL_ROOT} never calls poll_cancelled() itself — the "
               f"study loop must observe cancellation between phases")
    for target in CANCEL_TARGETS:
        if target not in functions:
            report(root_fn,
                   f"cancellation target {target}() not found in the "
                   f"scanned tree")
            continue
        fn = functions[target][0]
        if target not in reach:
            report(fn,
                   f"{target}() is not reachable from {CANCEL_ROOT}() — "
                   f"the study no longer exercises this reordering path "
                   f"(update CANCEL_TARGETS if that is deliberate)")
        if not subtree_polls(target, functions):
            report(fn,
                   f"no poll_cancelled() call is reachable from {target}() "
                   f"— this super-linear path cannot be cancelled")


# ---------------------------------------------------------------------------
# Rule: lock-order
# ---------------------------------------------------------------------------

ACQUIRE_RE = re.compile(r"\bMutexLock\s+(\w+)\s*\(\s*([^)]+?)\s*\)")
UNLOCK_RE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(\s*\)")
LOCAL_TYPE_RE = re.compile(r"\b([A-Z]\w*)\s*[&*]\s*(\w+)\b")


def resolve_mutex(expr, fn, classes, member_owners, local_types):
    """Canonical mutex identity for an acquisition expression."""
    expr = expr.strip().replace("this->", "")
    if expr.endswith("()"):
        return f"{fn.file.rel}::{expr}"
    m = re.search(r"(\w+)\s*(?:\.|->)\s*(\w+)$", expr)
    if m:
        recv, member = m.group(1), m.group(2)
        recv_type = local_types.get(recv)
        if recv_type and member in [
                mu for mu in getattr(classes.get(recv_type), "mutexes", [])]:
            return f"{recv_type}::{member}"
        owners = member_owners.get(member, [])
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        return f"{fn.file.rel}::{expr}"
    member = expr
    if fn.qualclass and member in getattr(
            classes.get(fn.qualclass), "mutexes", []):
        return f"{fn.qualclass}::{member}"
    owners = member_owners.get(member, [])
    if len(owners) == 1:
        return f"{owners[0]}::{member}"
    return f"{fn.file.rel}::{member}"


def function_acquisitions(fn, classes, member_owners):
    """All (mutex_id, lineno) a function acquires, plus the nesting edges
    (held_id, acquired_id, lineno) and the direct calls made while holding
    a lock (held_id, callee, lineno)."""
    local_types = {}
    for m in LOCAL_TYPE_RE.finditer(fn.signature):
        local_types.setdefault(m.group(2), m.group(1))
    for _lineno, code in fn.body:
        for m in LOCAL_TYPE_RE.finditer(code):
            local_types.setdefault(m.group(2), m.group(1))
    held = []  # [depth_at_acquisition, lock_var, mutex_id]
    acquisitions, edges, held_calls = [], [], []
    base = [resolve_mutex(r, fn, classes, member_owners, local_types)
            for r in fn.requires]
    depth = 0
    for lineno, code in fn.body:
        for m in ACQUIRE_RE.finditer(code):
            mid = resolve_mutex(m.group(2), fn, classes, member_owners,
                                local_types)
            acq_depth = (depth + code[: m.start()].count("{")
                         - code[: m.start()].count("}"))
            for held_id in base + [h[2] for h in held]:
                edges.append((held_id, mid, lineno))
            held.append([acq_depth, m.group(1), mid])
            acquisitions.append((mid, lineno))
        for m in UNLOCK_RE.finditer(code):
            held = [h for h in held if h[1] != m.group(1)]
        if held or base:
            for m in CALL_RE.finditer(code):
                name = m.group(1)
                # Only free-function calls propagate: `obj.method()` tokens
                # would collide with unrelated methods of the same name
                # (every container's empty()/size() would alias whichever
                # class method the index happens to hold).
                before = code[: m.start()].rstrip()
                if before.endswith(".") or before.endswith("->"):
                    continue
                if name not in ("MutexLock",):
                    for held_id in base + [h[2] for h in held]:
                        held_calls.append((held_id, name, lineno))
        # A lock dies when the scope it was declared in closes, i.e. the
        # brace depth drops below the depth recorded at its acquisition.
        depth += brace_delta(code)
        held = [h for h in held if depth >= h[0]]
    return acquisitions, edges, held_calls


def check_lock_order(classes, functions, violations):
    member_owners = {}
    for cls in classes.values():
        for mu in cls.mutexes:
            member_owners.setdefault(mu, []).append(cls.name)

    func_acqs = {}  # name -> set of mutex ids it acquires anywhere
    edges = {}      # (a, b) -> (file, line)
    pending_calls = []
    for name, fns in functions.items():
        acquired = set()
        for fn in fns:
            acqs, fn_edges, held_calls = function_acquisitions(
                fn, classes, member_owners)
            acquired.update(mid for mid, _ in acqs)
            for a, b, lineno in fn_edges:
                if fn.file.allowed(lineno, "lock-order", lookback=1):
                    continue
                edges.setdefault((a, b), (fn.file.rel, lineno))
            for held_id, callee, lineno in held_calls:
                if fn.file.allowed(lineno, "lock-order", lookback=1):
                    continue
                pending_calls.append((held_id, callee, fn.file.rel, lineno))
        func_acqs[name] = acquired
    # One level of call propagation: holding A while calling f() that
    # acquires B orders A before B.
    for held_id, callee, relpath, lineno in pending_calls:
        for b in func_acqs.get(callee, ()):
            if held_id != b:
                edges.setdefault((held_id, b), (relpath, lineno))

    graph = {}
    for (a, b), _site in edges.items():
        graph.setdefault(a, set()).add(b)

    # Cycle detection: iterative DFS with colors.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    reported = set()

    def find_cycle(start):
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        path = [start]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, WHITE) == GRAY and nxt in path:
                    cycle = path[path.index(nxt):] + [nxt]
                    for node_on_path in path:
                        color[node_on_path] = BLACK
                    return cycle
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
        return None

    for node in sorted(graph):
        if color.get(node, WHITE) != WHITE:
            continue
        cycle = find_cycle(node)
        if not cycle:
            continue
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        first_edge = (cycle[0], cycle[1])
        site = edges.get(first_edge, ("src", 0))
        chain = " -> ".join(cycle)
        violations.append(Violation(
            site[0], site[1], "lock-order",
            f"lock acquisition cycle (potential deadlock): {chain}; "
            f"establish a single order or break the nesting"))


# ---------------------------------------------------------------------------
# Rule: bare-allow
# ---------------------------------------------------------------------------

def check_bare_allow(f, violations):
    for lineno, (rules, justification) in sorted(f.allows.items()):
        if len(justification) < MIN_JUSTIFICATION:
            violations.append(Violation(
                f.rel, lineno, "bare-allow",
                f"allow({', '.join(sorted(rules))}) carries no inline "
                f"justification — say in the same comment why the rule "
                f"does not apply here (a bare allow suppresses nothing)"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(paths):
    files = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(REPO_ROOT,
                                                                 path)
        if os.path.isfile(absolute):
            if os.path.splitext(absolute)[1] in CXX_EXTENSIONS:
                files.append(absolute)
            continue
        for root, dirs, names in os.walk(absolute):
            dirs.sort()
            for name in sorted(names):
                if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                    files.append(os.path.join(root, name))
    return files


def run_analysis(paths):
    files = []
    for path in collect_files(paths):
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                files.append(SourceFile(path, handle.read()))
        except OSError as error:
            print(f"ordo_analyze: cannot read {path}: {error}",
                  file=sys.stderr)
    violations = []
    classes, functions = parse_structure(files)
    for f in files:
        check_raw_mutex(f, violations)
        check_memory_order(f, violations)
        check_relaxed_note(f, violations)
        check_timed_region(f, violations)
        check_bare_allow(f, violations)
    check_guard_coverage(classes, violations)
    check_cancel_poll(functions, violations)
    check_lock_order(classes, functions, violations)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = {
    # Each entry: relative path -> source. "bad" files must fire the rule;
    # "ok" files exercise the justified-allow path and must stay silent.
    "src/obs/bad_lock_order.cpp": """
struct LeftHolder { Mutex left; };
struct RightHolder { Mutex right; };
void take_left_then_right(LeftHolder& a, RightHolder& b) {
  MutexLock first(a.left);
  MutexLock second(b.right);
}
void take_right_then_left(LeftHolder& a, RightHolder& b) {
  MutexLock first(b.right);
  MutexLock second(a.left);
}
""",
    "src/obs/ok_lock_order.cpp": """
struct UpHolder { Mutex up; };
struct DownHolder { Mutex down; };
void order_a(UpHolder& a, DownHolder& b) {
  MutexLock first(a.up);
  MutexLock second(b.down);
}
void order_b(UpHolder& a, DownHolder& b) {
  MutexLock first(b.down);
  // ordo-analyze: allow(lock-order) self-test: inversion is quarantined
  MutexLock second(a.up);
}
""",
    "src/obs/bad_memory_order.cpp": """
#include <atomic>
void tick(std::atomic<int>& n) {
  n.store(1);
}
""",
    "src/obs/ok_memory_order.cpp": """
#include <atomic>
void tick(std::atomic<int>& n) {
  n.store(1);  // ordo-analyze: allow(memory-order) self-test: deliberate
  // Relaxed: self-test fixture, no ordering needed.
  n.store(2,
          std::memory_order_relaxed);
}
""",
    "src/obs/bad_relaxed_note.cpp": """
#include <atomic>
int peek(const std::atomic<int>& n) {

  return n.load(std::memory_order_relaxed);
}
""",
    "src/obs/ok_relaxed_note.cpp": """
#include <atomic>
int peek(const std::atomic<int>& n) {
  // ordo-analyze: allow(relaxed-note) self-test: justified via allow form
  return n.load(std::memory_order_relaxed);
}
""",
    "src/core/bad_timed_region.cpp": """
void measure() {
  obs::Stopwatch watch;
  std::string label = make_label();
  record(watch.seconds());
}
void measure_phase() {
  obs::Phase window(obs::Phase::Parts().hw("reorder.RCM"));
  obs::logf(obs::LogLevel::kDebug, "inside the counter window");
  window.close();
}
""",
    "src/core/ok_timed_region.cpp": """
void measure() {
  obs::Stopwatch watch;
  // ordo-analyze: allow(timed-region) self-test: label build is measured
  std::string label = make_label();
  record(watch.seconds());
}
""",
    "src/core/study.cpp": """
void run_matrix_study() {
  poll_cancelled(cancel, "study");
  nd_ordering();
  partition_graph();
  partition_hypergraph();
}
void nd_ordering() {
  dissect();
}
void dissect() {
  recurse();
}
void partition_graph() {
  poll_cancelled(cancel, "gp");
}
// ordo-analyze: allow(cancel-poll) self-test: suppressed target below
void partition_hypergraph() {
  refine();
}
""",
    "src/obs/bad_guard.cpp": """
struct Unguarded {
  Mutex mutex;
  int counter;
};
""",
    "src/obs/ok_guard.cpp": """
struct Guarded {
  Mutex mutex;
  int counter ORDO_GUARDED_BY(mutex);
  // ordo-analyze: allow(guard-coverage) self-test: write-once before spawn
  int config;
};
""",
    "src/obs/bad_raw_mutex.cpp": """
#include <mutex>
std::mutex raw_guard;
""",
    "src/obs/ok_raw_mutex.cpp": """
#include <mutex>
// ordo-analyze: allow(raw-mutex) self-test: sanctioned wrapper fixture
std::mutex raw_guard;
""",
    "src/obs/bad_bare_allow.cpp": """
#include <mutex>
std::mutex raw_guard;  // ordo-analyze: allow(raw-mutex)
""",
}

SELF_TEST_EXPECT = {
    "lock-order": "bad_lock_order.cpp",
    "memory-order": "bad_memory_order.cpp",
    "relaxed-note": "bad_relaxed_note.cpp",
    "timed-region": "bad_timed_region.cpp",
    "cancel-poll": "study.cpp",
    "guard-coverage": "bad_guard.cpp",
    "raw-mutex": "bad_raw_mutex.cpp",
    "bare-allow": "bad_bare_allow.cpp",
}


def self_test():
    global REPO_ROOT
    failures = []
    with tempfile.TemporaryDirectory(prefix="ordo_analyze_selftest_") as tmp:
        for relpath, source in SELF_TEST_FIXTURES.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source.lstrip("\n"))
        saved_root = REPO_ROOT
        REPO_ROOT = tmp
        try:
            violations = run_analysis(["src"])
        finally:
            REPO_ROOT = saved_root
    by_rule = {}
    for v in violations:
        by_rule.setdefault(v.rule, []).append(v)
    for rule, bad_file in sorted(SELF_TEST_EXPECT.items()):
        hits = [v for v in by_rule.get(rule, []) if bad_file in v.path]
        if not hits:
            failures.append(f"rule '{rule}' did not fire on seeded "
                            f"violation in {bad_file}")
    for v in violations:
        basename = os.path.basename(v.path)
        if basename.startswith("ok_"):
            failures.append(f"justified allow() was not honoured: {v}")
        if basename == "study.cpp" and "partition_hypergraph" in v.message:
            failures.append(f"cancel-poll allow() was not honoured: {v}")
    # Both seeded windows fire: the Stopwatch and the Phase with an hw scope.
    if len([v for v in violations if v.rule == "timed-region"
            and "bad_timed_region" in v.path]) < 2:
        failures.append("timed-region missed the Phase counter window")
    # The seeded bare allow must both fire bare-allow and fail to suppress.
    if not any(v.rule == "raw-mutex" and "bad_bare_allow" in v.path
               for v in violations):
        failures.append("a bare allow() suppressed a violation")
    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        print("--- violations seen ---")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"ordo_analyze self-test OK ({len(ALL_RULES)} rules verified)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Deep static pass: lock ordering, memory orders, timed "
                    "regions, cancellation coverage, guard annotations.")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on seeded violations")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    paths = args.paths or DEFAULT_PATHS
    violations = run_analysis(paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"ordo_analyze: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
