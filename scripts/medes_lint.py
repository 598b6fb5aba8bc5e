#!/usr/bin/env python3
"""medes-lint: determinism and invariant analyzer for the Medes tree.

Enforces repository-wide rules that clang-tidy cannot express — most of them
exist to protect the simulator's determinism contract (bit-identical results
at any MEDES_THREADS setting) and the documented locking discipline:

  raw-mutex            std::mutex / std::shared_mutex / std::lock_guard /
                       std::unique_lock / std::scoped_lock /
                       std::condition_variable anywhere but the annotated
                       wrappers in src/common/mutex.h. Raw primitives
                       bypass the capability annotations.
  wall-clock           steady_clock / system_clock / time() / gettimeofday
                       outside bench/* (which measures real elapsed time by
                       design).
                       Wall-clock reads in modelled code break determinism.
  raw-random           rand() / srand() / std::random_device outside bench/*.
                       All modelled randomness must flow through the seeded
                       SplitMix64 in common/rng.h.
  unordered-iteration  Range-for over a std::unordered_{map,set} in exporter
                       or serialization files. Iteration order is
                       implementation-defined, so serialized artifacts would
                       stop being byte-stable.
  include-guard        Header guards must be MEDES_<PATH>_H_ (path relative
                       to the repo root with a leading src/ stripped,
                       uppercased, separators mapped to '_').
  self-contained       A header that names a common std:: type must include
                       the defining header itself rather than lean on its
                       includers.
  direct-filesystem    fopen / std::ofstream / open(2) / std::filesystem
                       outside src/obs/artifact_sink.cc and bench/. The
                       library keeps no files of its own: every artifact it
                       writes goes through obs::WriteArtifactFile, the one
                       audited write, so exporters stay pure functions.
  metrics-guard        MetricsEnabled() in src/ outside src/obs/. Instruments
                       gate themselves, and a stats counter records its
                       series in the same call (obs::StatCounter), so a
                       call-site guard only reintroduces the mirrored
                       double bookkeeping.
  env-knob             std::getenv in src/ outside the files that own the
                       library's knobs: src/obs/obs.cc (MEDES_TRACE,
                       MEDES_METRICS, MEDES_TRACE_SAMPLE) and
                       src/common/thread_pool.cc (MEDES_THREADS). Each knob
                       is a mode the tests must cover, so a new one needs a
                       visible escape hatch.

Any finding can be suppressed with an inline escape hatch on the same or the
preceding line, naming the rule:

    std::mutex legacy_mu_;  // medes-lint: allow(raw-mutex) interop shim

Usage:
    python3 scripts/medes_lint.py              # lint the tree, exit 0/1
    python3 scripts/medes_lint.py FILE...      # lint specific files
    python3 scripts/medes_lint.py --self-test  # run the fixture corpus

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose C++ sources are linted by default.
LINT_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTENSIONS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"//\s*medes-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Findings


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _allowed_rules(lines: list[str], index: int) -> set[str]:
    """Rules suppressed for lines[index] (same-line or preceding-line escape)."""
    rules: set[str] = set()
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def _strip_strings_and_comments(line: str) -> str:
    """Blank out string/char literals and // comments so patterns inside them
    don't fire. Keeps column positions stable."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment
        out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rule: raw-mutex

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)


def check_raw_mutex(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if rel == "src/common/mutex.h":
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        m = RAW_MUTEX_RE.search(code)
        if m and "raw-mutex" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "raw-mutex",
                        f"std::{m.group(1)} bypasses the annotated wrappers in "
                        "src/common/mutex.h (capability annotations); use "
                        "medes::Mutex / MutexLock")
            )


# ---------------------------------------------------------------------------
# Rule: wall-clock

WALL_CLOCK_RE = re.compile(
    r"(steady_clock|system_clock|high_resolution_clock|gettimeofday\s*\(|"
    r"clock_gettime\s*\(|(?<![:\w])time\s*\(\s*(?:NULL|nullptr|0)\s*\))"
)
# Bench programs time real executions; nothing else reads a wall clock.
WALL_CLOCK_ALLOWED_DIRS = ("bench/",)


def check_wall_clock(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if rel.startswith(WALL_CLOCK_ALLOWED_DIRS):
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        m = WALL_CLOCK_RE.search(code)
        if m and "wall-clock" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "wall-clock",
                        f"wall-clock read ({m.group(1).strip()}) in modelled code "
                        "breaks the determinism contract; use SimTime/SimDuration")
            )


# ---------------------------------------------------------------------------
# Rule: raw-random

RAW_RANDOM_RE = re.compile(r"(std::random_device|(?<![:\w.])s?rand\s*\()")
RAW_RANDOM_ALLOWED_DIRS = ("bench/",)


def check_raw_random(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if rel.startswith(RAW_RANDOM_ALLOWED_DIRS):
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        m = RAW_RANDOM_RE.search(code)
        if m and "raw-random" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "raw-random",
                        f"nondeterministic randomness ({m.group(1).strip()}); all "
                        "modelled randomness must flow through the seeded "
                        "SplitMix64 in common/rng.h")
            )


# ---------------------------------------------------------------------------
# Rule: direct-filesystem

# fopen/freopen, the std::fstream family, std::filesystem, and bare open(2).
# The open(2) lookbehind keeps fopen(, ->open(, .open(, and ::open( from
# matching; a bare `open(` call in C++ code is almost always the POSIX one.
DIRECT_FILESYSTEM_RE = re.compile(
    r"(\bf(?:re)?open\s*\(|std::[io]?fstream\b|std::filesystem\b|"
    r"(?<![\w.:>])open\s*\()"
)
# Path prefixes allowed direct file access: the library's one artifact write
# (obs::WriteArtifactFile), and bench programs, which write their JSON
# artifacts directly by design.
DIRECT_FILESYSTEM_ALLOWED_PATHS = ("src/obs/artifact_sink.cc", "bench/")


def check_direct_filesystem(rel: str, lines: list[str],
                            findings: list[Finding]) -> None:
    if rel.startswith(DIRECT_FILESYSTEM_ALLOWED_PATHS):
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        m = DIRECT_FILESYSTEM_RE.search(code)
        if m and "direct-filesystem" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "direct-filesystem",
                        f"direct filesystem access ({m.group(1).strip()}) outside "
                        "src/obs/artifact_sink.cc and bench/; write artifacts "
                        "through obs::WriteArtifactFile")
            )


# ---------------------------------------------------------------------------
# Rule: metrics-guard

METRICS_GUARD_RE = re.compile(r"\bMetricsEnabled\s*\(\s*\)")


def check_metrics_guard(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if not rel.startswith("src/") or rel.startswith("src/obs/"):
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        if METRICS_GUARD_RE.search(code) and "metrics-guard" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "metrics-guard",
                        "MetricsEnabled() guard outside src/obs/: instruments gate "
                        "themselves; record a stats() field through an "
                        "obs::StatCounter member instead of mirroring it")
            )


# ---------------------------------------------------------------------------
# Rule: env-knob

ENV_KNOB_RE = re.compile(r"\bgetenv\s*\(")
ENV_KNOB_ALLOWED_FILES = ("src/obs/obs.cc", "src/common/thread_pool.cc")


def check_env_knob(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if not rel.startswith("src/") or rel in ENV_KNOB_ALLOWED_FILES:
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        if ENV_KNOB_RE.search(code) and "env-knob" not in _allowed_rules(lines, i):
            findings.append(
                Finding(rel, i + 1, "env-knob",
                        "environment read in the library outside the files that "
                        "own its knobs (src/obs/obs.cc, src/common/thread_pool.cc); "
                        "a new knob is a new mode to test")
            )


# ---------------------------------------------------------------------------
# Rule: unordered-iteration (exporter / serialization files only)

EXPORTER_FILE_RES = (
    re.compile(r"^src/obs/(export|metrics|trace)\.(h|cc)$"),
    re.compile(r"^bench/bench_util\.h$"),
)
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*>\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*&?(\w+)\s*\)")


def check_unordered_iteration(rel: str, lines: list[str],
                              findings: list[Finding]) -> None:
    if not any(r.match(rel) for r in EXPORTER_FILE_RES):
        return
    unordered_names = set()
    for raw in lines:
        for m in UNORDERED_DECL_RE.finditer(_strip_strings_and_comments(raw)):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return
    for i, raw in enumerate(lines):
        code = _strip_strings_and_comments(raw)
        m = RANGE_FOR_RE.search(code)
        if m and m.group(1) in unordered_names:
            if "unordered-iteration" not in _allowed_rules(lines, i):
                findings.append(
                    Finding(rel, i + 1, "unordered-iteration",
                            f"range-for over unordered container '{m.group(1)}' in "
                            "an exporter: iteration order is implementation-"
                            "defined, so serialized output would not be "
                            "byte-stable; copy to a sorted vector first")
                )


# ---------------------------------------------------------------------------
# Rule: include-guard

GUARD_IFNDEF_RE = re.compile(r"^#ifndef\s+(\S+)")


def expected_guard(rel: str) -> str:
    path = rel[len("src/"):] if rel.startswith("src/") else rel
    return "MEDES_" + re.sub(r"[^A-Za-z0-9]", "_", path).upper() + "_"


def check_include_guard(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if not rel.endswith(".h"):
        return
    want = expected_guard(rel)
    guard = None
    guard_line = 0
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = GUARD_IFNDEF_RE.match(stripped)
        if m:
            guard, guard_line = m.group(1), i + 1
        break  # first non-comment line decides
    if "include-guard" in _allowed_rules(lines, guard_line - 1):
        return
    if guard is None:
        findings.append(
            Finding(rel, 1, "include-guard",
                    f"missing include guard; expected '#ifndef {want}' as the "
                    "first non-comment line")
        )
        return
    if guard != want:
        findings.append(
            Finding(rel, guard_line, "include-guard",
                    f"guard '{guard}' does not match path; expected '{want}'")
        )
        return
    if guard_line >= len(lines) or not lines[guard_line].startswith(f"#define {want}"):
        findings.append(
            Finding(rel, guard_line + 1, "include-guard",
                    f"'#define {want}' must immediately follow the #ifndef")
        )


# ---------------------------------------------------------------------------
# Rule: self-contained (headers must include the std headers they name)

# Conservative symbol -> defining-header map: only types whose presence in a
# header unambiguously requires the include. <cstdint>/<cstddef> types are
# omitted (ubiquitous and transitively guaranteed by the style's own rule of
# thumb would be too noisy to bootstrap).
STD_SYMBOL_HEADERS = {
    "std::vector": "<vector>",
    "std::string": "<string>",
    "std::string_view": "<string_view>",
    "std::unordered_map": "<unordered_map>",
    "std::unordered_set": "<unordered_set>",
    "std::map": "<map>",
    "std::set": "<set>",
    "std::deque": "<deque>",
    "std::list": "<list>",
    "std::array": "<array>",
    "std::span": "<span>",
    "std::optional": "<optional>",
    "std::variant": "<variant>",
    "std::function": "<functional>",
    "std::unique_ptr": "<memory>",
    "std::shared_ptr": "<memory>",
    "std::atomic": "<atomic>",
    "std::thread": "<thread>",
    "std::ostream": "<ostream>",
    "std::pair": "<utility>",
    "std::tuple": "<tuple>",
    "std::nullopt": "<optional>",
    "std::weak_ptr": "<memory>",
    "std::byte": "<cstddef>",
    "std::runtime_error": "<stdexcept>",
    "std::logic_error": "<stdexcept>",
    "std::out_of_range": "<stdexcept>",
}
INCLUDE_RE = re.compile(r'^\s*#include\s+([<"][^>"]+[>"])')
WORD_BOUNDARY = r"(?![\w])"


def check_self_contained(rel: str, lines: list[str], findings: list[Finding]) -> None:
    if not rel.endswith(".h"):
        return
    includes = set()
    for raw in lines:
        m = INCLUDE_RE.match(raw)
        if m:
            includes.add(m.group(1).replace('"', "<").replace('"', ">"))
            includes.add(m.group(1))
    for symbol, header in STD_SYMBOL_HEADERS.items():
        if header in includes:
            continue
        pattern = re.compile(re.escape(symbol) + WORD_BOUNDARY)
        for i, raw in enumerate(lines):
            code = _strip_strings_and_comments(raw)
            if pattern.search(code):
                if "self-contained" in _allowed_rules(lines, i):
                    break
                findings.append(
                    Finding(rel, i + 1, "self-contained",
                            f"header names {symbol} but does not include "
                            f"{header}; headers must be self-contained")
                )
                break  # one finding per missing header is enough


# ---------------------------------------------------------------------------
# Driver

PER_FILE_CHECKS = (
    check_raw_mutex,
    check_wall_clock,
    check_raw_random,
    check_direct_filesystem,
    check_metrics_guard,
    check_env_knob,
    check_unordered_iteration,
    check_include_guard,
    check_self_contained,
)


def default_files(root: str) -> list[str]:
    files = []
    for top in LINT_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    files.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def lint_files(root: str, files: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rel in files:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            findings.append(Finding(rel, 0, "io", str(e)))
            continue
        for check in PER_FILE_CHECKS:
            check(rel, lines, findings)
    return findings


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")

# fixture file -> rule that must fire at least once on it. Fixtures are laid
# out under lint_fixtures/<mapped-path> so path-scoped rules see the path
# they key on.
FIXTURE_EXPECTATIONS = {
    "src/bad_raw_mutex.cc": "raw-mutex",
    "src/bad_wall_clock.cc": "wall-clock",
    "src/bad_raw_random.cc": "raw-random",
    "src/bad_filesystem.cc": "direct-filesystem",
    "src/bad_metrics_guard.cc": "metrics-guard",
    "src/obs/metrics_guard_ok.cc": None,  # src/obs/ may read the switch
    "src/bad_env_knob.cc": "env-knob",
    "src/obs/export.cc": "unordered-iteration",
    "src/bad_guard.h": "include-guard",
    "src/bad_self_contained.h": "self-contained",
    "src/clean.cc": None,  # escape hatches + clean idioms: must NOT fire
}


def self_test() -> int:
    failures = 0
    for rel, expected_rule in sorted(FIXTURE_EXPECTATIONS.items()):
        path = os.path.join(FIXTURE_DIR, rel)
        if not os.path.exists(path):
            print(f"self-test FAIL: missing fixture {rel}")
            failures += 1
            continue
        findings = lint_files(FIXTURE_DIR, [rel])
        fired = {f.rule for f in findings}
        if expected_rule is None:
            if findings:
                print(f"self-test FAIL: {rel} should be clean but fired: "
                      f"{sorted(fired)}")
                for f in findings:
                    print(f"    {f}")
                failures += 1
            else:
                print(f"self-test ok: {rel} (clean)")
        elif expected_rule not in fired:
            print(f"self-test FAIL: {rel} expected [{expected_rule}], "
                  f"fired {sorted(fired) or 'nothing'}")
            failures += 1
        else:
            print(f"self-test ok: {rel} -> [{expected_rule}]")
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print("self-test: all fixtures behave")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: src/tests/bench/examples)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: the repo this script lives in)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the known-bad fixture corpus and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    if args.files:
        files = [os.path.relpath(os.path.abspath(f), root) for f in args.files]
    else:
        files = default_files(root)
    findings = lint_files(root, files)
    for f in findings:
        print(f)
    if findings:
        print(f"medes-lint: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"medes-lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
