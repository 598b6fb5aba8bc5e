#!/usr/bin/env python3
"""Alternating same-session perfbench pairs: a parent checkout against a change.

    python3 -m scripts perf-pairs --parent DIR --change DIR --workload W \\
        --seeds A-B --seconds S
    python3 -m scripts perf-pairs --self-test

For each seed in A..B, runs `perfbench/run.py` once in each checkout: the
parent first on even pairs and the change first on odd ones, so a drift in
the host's load favours neither side. Every run must report `correct: true`,
and both runs of a seed must print the same modelled digest. For each
end-to-end metric that BENCHMARK.json names, it then prints the parent's and
the change's medians, the parent's interquartile range and the number of
pairs in which the change was ahead (by the metric's `better` direction).

Exits 1 on a run that fails, is not correct or disagrees on the digest, and
2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 1200  # the first run in a checkout also builds it


class PairError(Exception):
    pass


def end_to_end_spec(path=BENCHMARK_JSON):
    """[(name, better)] for the end-to-end metrics, in BENCHMARK.json order."""
    spec = json.loads(Path(path).read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def parse_run(stdout, label):
    """The digest and end-to-end metric values of one perfbench run.

    perfbench prints its report (with the digest) on the line before the
    last and the result object on the last line."""
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise PairError(f"{label}: no report and result lines in the output")
    if report.get("correct") is not True or result.get("correct") is not True:
        raise PairError(f"{label}: run is not correct: {report.get('problems')}")
    digest = report.get("digest")
    if not digest:
        raise PairError(f"{label}: report has no digest")
    return digest, {name: m["value"] for name, m in result["metrics"].items()}


def check_pair(seed, parent, change):
    """Both runs of a seed must model the same thing."""
    if parent[0] != change[0]:
        raise PairError(f"seed {seed}: digests differ: parent {parent[0]}, change {change[0]}")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, spec):
    """One row per metric: (name, better, parent median, change median,
    parent IQR, pairs the change was ahead in, pairs)."""
    rows = []
    for name, better in spec:
        parent = [p[1][name] for _, p, _ in pairs]
        change = [c[1][name] for _, _, c in pairs]
        if better == "higher":
            ahead = sum(c > p for p, c in zip(parent, change))
        else:
            ahead = sum(c < p for p, c in zip(parent, change))
        rows.append((name, better, statistics.median(parent), statistics.median(change),
                     iqr(parent), ahead, len(pairs)))
    return rows


def format_rows(rows):
    out = [f"{'metric':<16} {'better':<6} {'parent':>12} {'change':>12} {'delta':>8} "
           f"{'parent IQR':>12} {'ahead':>7}"]
    for name, better, pm, cm, spread, ahead, n in rows:
        delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
        out.append(f"{name:<16} {better:<6} {pm:>12.6g} {cm:>12.6g} {delta:>8} "
                   f"{spread:>12.4g} {ahead:>3}/{n:<3}")
    return "\n".join(out)


def run_perfbench(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    label = f"{checkout} seed {seed}"
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PairError(f"{label}: timed out")
    if proc.returncode != 0:
        raise PairError(f"{label}: perfbench exited {proc.returncode}")
    return parse_run(proc.stdout, label)


def parse_seeds(text):
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if lo < 0 or hi < lo:
        raise ValueError(text)
    return list(range(lo, hi + 1))


def run_pairs(args):
    spec = end_to_end_spec()
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side] = run_perfbench(checkout, args.workload, seed, args.seconds)
        check_pair(seed, runs["parent"], runs["change"])
        values = "  ".join(f"{name} {runs['parent'][1][name]:.6g} -> {runs['change'][1][name]:.6g}"
                           for name, _ in spec)
        print(f"seed {seed} ({order[0]} first) digest {runs['parent'][0]}: {values}",
              flush=True)
        pairs.append((seed, runs["parent"], runs["change"]))
    print(f"\n{args.workload}, {len(pairs)} pairs of {args.seconds} s, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}")
    print(format_rows(summarize(pairs, spec)))
    return 0


# --- self-test on canned result lines ---------------------------------------

def canned_output(digest, rps, setup, rss, correct=True):
    flag = "true" if correct else "false"
    metrics = json.dumps({"requests_per_s": {"value": rps, "unit": "1/s"},
                          "setup_s": {"value": setup, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}})
    report = (f'{{"workload": "keepalive", "seed": 1, "correct": {flag}, "problems": [], '
              f'"digest": "{digest}", "end_to_end": {metrics}}}')
    result = f'{{"correct": {flag}, "attempted": 10, "failed": 0, "metrics": {metrics}}}'
    return f"building...\n{report}\n{result}\n"


def self_test():
    spec = end_to_end_spec()
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    parent = [(3.0e6, 0.050, 135.0), (3.4e6, 0.048, 135.5), (3.2e6, 0.049, 135.2),
              (3.6e6, 0.051, 135.1)]
    change = [(4.5e6, 0.050, 130.0), (4.4e6, 0.047, 130.1), (3.1e6, 0.049, 130.2),
              (4.7e6, 0.052, 130.0)]
    pairs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs = (parse_run(canned_output("aa11", *p), "parent"),
                parse_run(canned_output("aa11", *c), "change"))
        check_pair(seed, *runs)
        pairs.append((seed, *runs))
    rows = {row[0]: row for row in summarize(pairs, spec)}
    expect(set(rows) == {"requests_per_s", "setup_s", "peak_rss_mb"}, "metric set")
    _, _, pm, cm, spread, ahead, n = rows["requests_per_s"]
    expect((pm, cm, n) == (3.3e6, 4.45e6, 4), f"requests_per_s medians {pm} {cm}")
    expect(abs(spread - 0.3e6) < 1e-3, f"requests_per_s IQR {spread}")
    expect(ahead == 3, f"requests_per_s ahead {ahead} (higher is better)")
    _, _, pm, cm, spread, ahead, _ = rows["setup_s"]
    expect(ahead == 1, f"setup_s ahead {ahead} (lower is better; ties are not ahead)")
    _, _, pm, cm, spread, ahead, _ = rows["peak_rss_mb"]
    expect(ahead == 4 and cm == 130.05, f"peak_rss_mb ahead {ahead} median {cm}")
    expect("+34.8%" in format_rows([rows["requests_per_s"]]), "delta column")

    rejected = {
        "digest mismatch": lambda: check_pair(
            1, parse_run(canned_output("aa11", *parent[0]), "p"),
            parse_run(canned_output("bb22", *change[0]), "c")),
        "incorrect run": lambda: parse_run(canned_output("aa11", *parent[0], correct=False), "p"),
        "truncated output": lambda: parse_run("perfbench: build failed\n", "p"),
    }
    for what, call in rejected.items():
        try:
            call()
            failures.append(f"{what} was accepted")
        except PairError:
            pass
    expect(parse_seeds("11-13") == [11, 12, 13] and parse_seeds("4") == [4], "seed ranges")

    for failure in failures:
        print(f"perf-pairs self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("perf-pairs self-test: ok")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m scripts perf-pairs",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="A-B (inclusive) or one seed")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    missing = [f"--{k}" for k in ("parent", "change", "workload", "seeds", "seconds")
               if getattr(args, k) is None]
    if missing:
        parser.error(f"missing {', '.join(missing)}")
    try:
        args.seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"bad --seeds {args.seeds!r}")
    try:
        return run_pairs(args)
    except PairError as e:
        print(f"perf-pairs: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
