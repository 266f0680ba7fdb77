#!/usr/bin/env python3
"""Docs reference checker: every path, flag, env var, and ctest label that
the documentation mentions must actually exist in the tree.

Stale docs are the failure mode of a repo that grows one PR at a time:
a renamed binary, a dropped flag, or a retired env var silently survives in
README prose. This tool makes the docs part of tier 1 -- it runs under ctest
(label `check`) and in the CI lint job, and it fails the build when any of
these drift:

  * file paths     -- `src/select/model.hpp`, `tools/ordo_lint.py`,
                      `./build/examples/quickstart` (build/ prefixes map back
                      to the source file that produces the binary), globs
                      (`bench/micro_*.cpp`) must match at least one file;
  * CLI flags      -- every `--flag` in docs must be parsed by some binary or
                      tool in the tree (external tools like cmake/ctest/git
                      have an allowlist);
  * env vars       -- every ORDO_* name in docs must be read somewhere in
                      code, CMake, or the CI workflow;
  * ctest labels   -- every `ctest -L <label>` must name a label that
                      tests/CMakeLists.txt actually assigns;
  * help coverage  -- every flag examples/run_study.cpp parses must appear in
                      its usage text, and vice versa (no undocumented or
                      phantom flags).

Usage:
  python3 tools/ordo_docs_check.py [--root DIR]   # check the tree
  python3 tools/ordo_docs_check.py --self-test    # check the checker
"""

import argparse
import glob
import os
import re
import sys

DOC_FILES = ["README.md", "DESIGN.md", "docs/ARCHITECTURE.md",
             "EXPERIMENTS.md"]

# Directories a doc-mentioned path may live in (relative to repo root).
PATH_PREFIXES = ("src/", "docs/", "tools/", "examples/", "bench/", "tests/",
                 "cmake/", ".github/", "ordo_results/")

# Extensionless doc paths (usually binaries) are resolved by trying these.
SOURCE_SUFFIXES = ("", ".cpp", ".py", ".md")

# Flags that belong to tools outside this repo (cmake, ctest, git, pip...)
# which the docs legitimately mention in command recipes.
EXTERNAL_FLAGS = {
    "--build", "--test-dir", "--output-on-failure", "--parallel",
    "--target", "--config", "--preset", "--version", "--branch", "--depth",
    "--label-regex", "--tests-regex", "--timeout", "--verbose",
}

CODE_SPAN_RE = re.compile(r"`([^`]+)`")
FENCE_RE = re.compile(r"^(```|~~~)")
LINK_RE = re.compile(r"\]\(([^)#]+)\)")
FLAG_RE = re.compile(r"(?<![\w`/=-])--[a-z][a-z0-9-]+\b")
ENV_RE = re.compile(r"\bORDO_[A-Z][A-Z0-9_]*\b")
CTEST_LABEL_RE = re.compile(r"ctest[^\n]*?-L\s+'?\^?([A-Za-z_][\w|]*)")
LABEL_DEF_RE = re.compile(r"LABELS\s+\"?([A-Za-z_]\w*)\"?")
ARG_PARSE_RE = re.compile(r"""arg\s*==\s*"(--[a-z0-9-]+)"|"(--[a-z0-9-]+)=""")


def doc_tokens(text):
    """Yield (line_number, word) for every word inside code spans, fenced
    blocks, and link targets -- the places docs reference concrete names."""
    in_fence = False
    for ln, line in enumerate(text.splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            for word in line.split():
                yield ln, word
            continue
        for span in CODE_SPAN_RE.findall(line):
            for word in span.split():
                yield ln, word
        for target in LINK_RE.findall(line):
            yield ln, target


def looks_like_path(word):
    if "://" in word or "<" in word or "$" in word or word.startswith("-"):
        return False
    for expanded in expand_braces(word):
        w = expanded.lstrip("./")
        if w.startswith("build/"):
            w = w[len("build/"):]
        if w.startswith(PATH_PREFIXES):
            return True
        # Root-level docs: README.md, DESIGN.md, CHANGES.md ...
        if "/" not in w and w.endswith(".md"):
            return True
    return False


def normalize_path(word):
    w = word.strip("`,.;:()").lstrip("./")
    if w.startswith("build/"):
        w = w[len("build/"):]
    return w.rstrip("/")


def check_path(root, word):
    """True if the doc-mentioned path resolves to something in the tree."""
    w = normalize_path(word)
    if not w:
        return True
    for suffix in SOURCE_SUFFIXES:
        candidate = os.path.join(root, w + suffix)
        if os.path.exists(candidate):
            return True
        if any(ch in w for ch in "*?[{"):
            # Globs (and {a,b} brace alternation, expanded by hand).
            for expanded in expand_braces(w + suffix):
                if glob.glob(os.path.join(root, expanded)):
                    return True
    return False


def expand_braces(pattern):
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    head, tail = pattern[:m.start()], pattern[m.end():]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(head + alt + tail))
    return out


def tree_sources(root):
    """All files whose contents define flags / read env vars."""
    files = ["CMakeLists.txt"]
    for sub in ("src", "bench", "examples", "tools", "tests", ".github"):
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            for name in names:
                if name.endswith((".cpp", ".hpp", ".inc", ".py", ".yml",
                                  ".yaml", ".txt", ".cmake")):
                    files.append(os.path.relpath(os.path.join(dirpath, name),
                                                 root))
    return files


def collect_defined(root):
    """Scan the tree once: defined CLI flags, ORDO_ env vars, ctest labels."""
    flags, env = set(), set()
    labels = {"check"}  # add_test + set_tests_properties assigns it
    for rel in tree_sources(root):
        path = os.path.join(root, rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        env.update(ENV_RE.findall(text))
        for m in re.finditer(r"\"(--[a-z][a-z0-9-]+)[=\"]", text):
            flags.add(m.group(1))
        if rel.endswith((".txt", ".cmake")):
            labels.update(LABEL_DEF_RE.findall(text))
    return flags, env, labels


def check_docs(root, docs=None):
    """Returns a list of 'file:line: message' failure strings."""
    failures = []
    flags_defined, env_defined, labels_defined = collect_defined(root)

    for doc in docs or DOC_FILES:
        path = os.path.join(root, doc)
        if not os.path.exists(path):
            failures.append("%s: documentation file missing" % doc)
            continue
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()

        for ln, word in doc_tokens(text):
            if looks_like_path(word):
                if not check_path(root, word):
                    failures.append("%s:%d: path not in tree: %s"
                                    % (doc, ln, word))
            for flag in FLAG_RE.findall(word):
                if flag not in flags_defined and flag not in EXTERNAL_FLAGS:
                    failures.append("%s:%d: flag not parsed anywhere: %s"
                                    % (doc, ln, flag))

        for ln, line in enumerate(text.splitlines(), 1):
            for var in ENV_RE.findall(line):
                if var not in env_defined:
                    failures.append("%s:%d: env var not read anywhere: %s"
                                    % (doc, ln, var))
            for m in CTEST_LABEL_RE.finditer(line):
                for label in m.group(1).split("|"):
                    if label not in labels_defined:
                        failures.append("%s:%d: ctest label not defined: %s"
                                        % (doc, ln, label))

    failures.extend(check_help_coverage(root, flags_defined=flags_defined))
    return failures


def check_help_coverage(root, rel="examples/run_study.cpp",
                        flags_defined=()):
    """run_study's usage text and its argument parser must agree exactly.

    The usage text may also *mention* flags of other in-repo tools (e.g.
    `tools/ordo_top.py --file`); those count as documented-elsewhere, not as
    phantom run_study flags, as long as something in the tree parses them.
    """
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return ["%s: missing (help-coverage check)" % rel]
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    parsed = set()
    for m in ARG_PARSE_RE.finditer(text):
        parsed.add(m.group(1) or m.group(2))
    m = re.search(r"print_usage[^{]*\{(.*?)\n\}", text, re.S)
    if not m:
        return ["%s: no print_usage() found (help-coverage check)" % rel]
    documented = set(re.findall(r"--[a-z][a-z0-9-]+", m.group(1)))
    failures = []
    for flag in sorted(parsed - documented):
        failures.append("%s: flag %s is parsed but absent from --help"
                        % (rel, flag))
    for flag in sorted(documented - parsed - set(flags_defined) -
                       EXTERNAL_FLAGS):
        failures.append("%s: --help documents %s but nothing parses it"
                        % (rel, flag))
    return failures


# ---------------------------------------------------------------------------
# Self test: synthetic tree in /tmp with one of each violation.
# ---------------------------------------------------------------------------

def self_test():
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="ordo_docs_check_")
    try:
        def put(rel, content):
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path) or root, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)

        put("src/good.hpp", "// ORDO_GOOD_VAR\n")
        put("tests/CMakeLists.txt", 'PROPERTIES LABELS obs\n')
        put("examples/demo.cpp", 'if (arg == "--real-flag") {}\n')
        put("examples/run_study.cpp",
            'void print_usage() {\n'
            '  printf("--both N   sets N\\n--help-only X\\n");\n'
            '}\n'
            'int main() { if (arg == "--both") {} '
            'if (arg == "--parsed-only") {} }\n')
        put("README.md",
            "see `src/good.hpp` and `src/missing.hpp`\n"
            "run with `--real-flag` and `--fake-flag`\n"
            "set `ORDO_GOOD_VAR` or `ORDO_FAKE_VAR`\n"
            "then `ctest -L obs` and `ctest -L nolabel`\n"
            "globs: `src/*.hpp` and `src/*.nothing`\n"
            "braces: `{src,tools}/good.hpp` and `{src,tools}/nope.hpp`\n")

        failures = check_docs(root, docs=["README.md"])
        text = "\n".join(failures)
        # Each planted violation fires...
        for needle in ("src/missing.hpp", "--fake-flag", "ORDO_FAKE_VAR",
                       "nolabel", "src/*.nothing", "{src,tools}/nope.hpp",
                       "--parsed-only", "--help-only"):
            assert needle in text, (needle, text)
        # ...and nothing that exists is flagged.
        for clean in ("src/good.hpp\n", "--real-flag", "ORDO_GOOD_VAR",
                      "label not defined: obs", "src/*.hpp",
                      "{src,tools}/good.hpp", "--both"):
            assert clean not in text, (clean, text)
        assert len(failures) == 8, failures

        # A second doc listed in DOC_FILES but absent is itself a failure.
        missing = check_docs(root, docs=["GONE.md"])
        assert any("GONE.md" in f for f in missing)

        print("ordo_docs_check: self-test OK")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    failures = check_docs(root)
    for failure in failures:
        print(failure)
    if failures:
        print("ordo_docs_check: %d stale reference(s)" % len(failures))
        return 1
    print("ordo_docs_check: OK (%d docs checked)" % len(DOC_FILES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
