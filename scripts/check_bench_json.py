#!/usr/bin/env python3
"""Validate a bench JSON report (as emitted by bench_util's JsonWriter).

Checks, without external dependencies:
  - the file parses as a single JSON object with the shared metadata block
    (bench name, the kernel tier that ran — one of scalar, portable, avx2 and
    no higher than the max supported tier — and whether SHA-NI was on,
    wall_seconds, sim event counters);
  - for cluster_scale reports (bench/campaign cluster_scale): every sweep
    entry carries the full set of capacity-campaign fields with sane values;
  - for restore_latency reports (bench/campaign restore_latency):
    every sweep entry carries the eager-vs-lazy critical-path percentiles
    with sane values and a working-set hit rate in [0,1];
    --min-lazy-p99-speedup gates the eager/lazy P99 ratio at the largest
    node count;
  - for trace_analysis reports (bench/campaign trace_attribution): the
    sampling block is sane, no span's parent link failed to resolve, the
    per-stage critical-path attribution sums to within
    --max-attribution-error of the measured latency for both the request and
    restore views, the restore P99 clears --min-restore-p99-us, and the
    top-slowest exemplar trees are sorted with every parent id resolving
    inside its tree;
  - --compare-ignoring-metadata OTHER checks two reports for payload equality
    after dropping the metadata block (which carries wall clock and thread
    count) and the host-time keys of each sweep entry (HOST_TIME_SWEEP_KEYS,
    which cluster_scale reports per point) — the determinism contract across
    MEDES_THREADS settings;
  - --self-test runs that comparison over the fixture pairs in
    scripts/bench_fixtures/ and checks each verdict.

Usage: check_bench_json.py FILE [--bench NAME] [--min-lazy-p99-speedup X]
                                [--compare-ignoring-metadata OTHER]
       check_bench_json.py --self-test
Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys
from pathlib import Path

SWEEP_FIELDS = {
    "nodes": (int,),
    "objective": (str,),
    "rate_scale": (int, float),
    "trace_duration_s": (int, float),
    "requests": (int,),
    "sim_events": (int,),
    "wall_seconds": (int, float),
    "events_per_sec": (int, float),
    "cold_start_rate": (int, float),
    "p99_e2e_ms": (int, float),
    "memory_saved_mb": (int, float),
    "transport_bytes": (int,),
}

KERNEL_TIERS = ("scalar", "portable", "avx2")  # lowest to highest

METADATA_FIELDS = {
    "bench": (str,),
    "active_tier": (str,),
    "sha_ni_active": (bool,),
    "max_supported_tier": (str,),
    "wall_seconds": (int, float),
    "sim_events_fired": (int,),
    "sim_events_per_sec": (int, float),
    "peak_rss_mb": (int, float),
}


def fail(message: str) -> None:
    sys.exit(f"check_bench_json: {message}")


def require(obj: dict, block: str, fields: dict) -> None:
    for name, types in fields.items():
        if name not in obj:
            fail(f"{block}: missing field {name!r}")
        if not isinstance(obj[name], types) or (isinstance(obj[name], bool)
                                                and bool not in types):
            fail(f"{block}.{name}: expected {types}, got {type(obj[name]).__name__}")


def check_cluster_scale(doc: dict) -> str:
    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail("sweep: expected a non-empty array")
    for i, entry in enumerate(sweep):
        block = f"sweep[{i}]"
        require(entry, block, SWEEP_FIELDS)
        if entry["requests"] <= 0 or entry["sim_events"] <= 0:
            fail(f"{block}: empty run (requests={entry['requests']})")
        if entry["wall_seconds"] <= 0 or entry["events_per_sec"] <= 0:
            fail(f"{block}: non-positive timing")
        if not 0 <= entry["cold_start_rate"] <= 1:
            fail(f"{block}: cold_start_rate out of [0,1]")
    return f"{len(sweep)} sweep points"


RESTORE_SWEEP_FIELDS = {
    "nodes": (int,),
    "rate_scale": (int, float),
    "trace_duration_s": (int, float),
    "requests": (int,),
    "eager_restores": (int,),
    "lazy_restores": (int,),
    "eager_p50_ms": (int, float),
    "eager_p99_ms": (int, float),
    "lazy_p50_ms": (int, float),
    "lazy_p99_ms": (int, float),
    "lazy_p99_speedup": (int, float),
    "ws_hit_rate": (int, float),
    "ws_fault_pages": (int,),
    "background_completions": (int,),
    "background_pages": (int,),
}

RESTORE_FUNCTION_FIELDS = {
    "function": (str,),
    "eager_total_ms": (int, float),
    "lazy_critical_ms": (int, float),
    "lazy_fault_ms": (int, float),
    "lazy_background_pages": (int,),
    "cold_start_ms": (int, float),
}


def check_restore_latency(doc: dict, args: argparse.Namespace) -> str:
    per_function = doc.get("per_function")
    if not isinstance(per_function, list) or not per_function:
        fail("per_function: expected a non-empty array")
    for i, entry in enumerate(per_function):
        block = f"per_function[{i}]"
        require(entry, block, RESTORE_FUNCTION_FIELDS)
        if entry["lazy_critical_ms"] <= 0 or entry["eager_total_ms"] <= 0:
            fail(f"{block}: non-positive restore time")
        if entry["lazy_critical_ms"] >= entry["eager_total_ms"]:
            fail(f"{block}: trained lazy critical path not below eager total")

    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail("sweep: expected a non-empty array")
    for i, entry in enumerate(sweep):
        block = f"sweep[{i}]"
        require(entry, block, RESTORE_SWEEP_FIELDS)
        if entry["requests"] <= 0:
            fail(f"{block}: empty run")
        if entry["eager_restores"] <= 0 or entry["lazy_restores"] <= 0:
            fail(f"{block}: no restores measured (eager={entry['eager_restores']}, "
                 f"lazy={entry['lazy_restores']})")
        if not 0 <= entry["ws_hit_rate"] <= 1:
            fail(f"{block}: ws_hit_rate out of [0,1]")
        if entry["eager_p99_ms"] <= 0 or entry["lazy_p99_ms"] <= 0:
            fail(f"{block}: non-positive P99")

    top = max(sweep, key=lambda e: e["nodes"])
    speedup = top["eager_p99_ms"] / top["lazy_p99_ms"]
    if speedup < args.min_lazy_p99_speedup:
        fail(f"lazy P99 speedup {speedup:.2f}x at {top['nodes']} nodes "
             f"below floor {args.min_lazy_p99_speedup:.2f}x")
    return (f"{len(sweep)} sweep points, lazy P99 {speedup:.2f}x vs eager at "
            f"{top['nodes']} nodes, hit rate {top['ws_hit_rate']:.0%}")


ATTRIBUTION_SAMPLING_FIELDS = {
    "total_requests": (int,),
    "sample_every": (int,),
    "sampled_traces": (int,),
    "sampled_spans": (int,),
    "unresolved_parents": (int,),
}

ATTRIBUTION_SUMMARY_FIELDS = {
    "traces": (int,),
    "total_us": (int,),
    "p50_total_us": (int,),
    "p99_total_us": (int,),
    "attribution_fraction_sum": (int, float),
}

ATTRIBUTION_STAGE_FIELDS = {
    "stage": (str,),
    "traces": (int,),
    "total_us": (int,),
    "p50_us": (int,),
    "p99_us": (int,),
    "fraction": (int, float),
}


def check_attribution_summary(doc: dict, key: str, args: argparse.Namespace,
                              required: bool) -> dict:
    summary = doc.get(key)
    if not isinstance(summary, dict):
        fail(f"missing {key} block")
    require(summary, key, ATTRIBUTION_SUMMARY_FIELDS)
    if required and summary["traces"] <= 0:
        fail(f"{key}: no sampled traces attributed")
    stages = summary.get("stages")
    if not isinstance(stages, list):
        fail(f"{key}.stages: expected an array")
    fraction_total = 0.0
    for i, stage in enumerate(stages):
        block = f"{key}.stages[{i}]"
        require(stage, block, ATTRIBUTION_STAGE_FIELDS)
        if not 0 <= stage["fraction"] <= 1:
            fail(f"{block}: fraction out of [0,1]")
        if stage["p50_us"] > stage["p99_us"]:
            fail(f"{block}: P50 above P99")
        fraction_total += stage["fraction"]
    # Two sum-to-one invariants: the per-trace sweep (attributed self time vs
    # measured root duration) and the reported per-stage fractions.
    if summary["traces"] > 0:
        err = abs(summary["attribution_fraction_sum"] - 1.0)
        if err > args.max_attribution_error:
            fail(f"{key}: attributed time is {summary['attribution_fraction_sum']:.6f} "
                 f"of measured latency (|err| {err:.6f} > {args.max_attribution_error})")
        if abs(fraction_total - 1.0) > args.max_attribution_error:
            fail(f"{key}: stage fractions sum to {fraction_total:.6f}, not ~1")
    return summary


def check_span_tree(node: dict, block: str, span_ids: set, depth: int = 0) -> None:
    if depth > 64:
        fail(f"{block}: span tree deeper than 64 (cycle?)")
    for name, types in (("name", (str,)), ("ts_us", (int,)), ("dur_us", (int,)),
                        ("span_id", (int,)), ("parent_span_id", (int,))):
        if name not in node:
            fail(f"{block}: missing field {name!r}")
        if not isinstance(node[name], types) or isinstance(node[name], bool):
            fail(f"{block}.{name}: expected {types}")
    span_ids.add(node["span_id"])
    for i, child in enumerate(node.get("children", [])):
        check_span_tree(child, f"{block}.children[{i}]", span_ids, depth + 1)


def check_trace_analysis(doc: dict, args: argparse.Namespace) -> str:
    sampling = doc.get("sampling")
    if not isinstance(sampling, dict):
        fail("missing sampling block")
    require(sampling, "sampling", ATTRIBUTION_SAMPLING_FIELDS)
    if sampling["total_requests"] <= 0:
        fail("sampling: empty run")
    if sampling["sample_every"] < 1:
        fail("sampling: sample_every below 1")
    if sampling["sampled_traces"] <= 0:
        fail("sampling: no traces sampled")
    if sampling["unresolved_parents"] != 0:
        fail(f"sampling: {sampling['unresolved_parents']} spans had unresolvable "
             "parent links (every context used as a parent must be recorded)")

    requests = check_attribution_summary(doc, "requests", args, required=True)
    restores = check_attribution_summary(doc, "restores", args, required=False)
    if restores["traces"] > 0 and restores["p99_total_us"] < args.min_restore_p99_us:
        fail(f"restores: P99 {restores['p99_total_us']}us below floor "
             f"{args.min_restore_p99_us:.0f}us — restore spans are not "
             "covering the modelled restore work")

    top = doc.get("top_slowest")
    if not isinstance(top, list) or not top:
        fail("top_slowest: expected a non-empty array")
    if len(top) > 10:
        fail(f"top_slowest: {len(top)} entries, expected at most 10")
    previous = None
    for i, entry in enumerate(top):
        block = f"top_slowest[{i}]"
        require(entry, block, {"trace_id": (int,), "total_us": (int,),
                               "unresolved_parents": (int,)})
        if previous is not None and entry["total_us"] > previous:
            fail(f"{block}: not sorted slowest-first")
        previous = entry["total_us"]
        if entry["unresolved_parents"] != 0:
            fail(f"{block}: unresolvable parent links in exemplar tree")
        root = entry.get("root")
        if not isinstance(root, dict):
            fail(f"{block}: missing root span tree")
        span_ids = set()
        check_span_tree(root, f"{block}.root", span_ids)
        # Every nested child's parent is its enclosing span by construction;
        # re-check the flat invariant: all parent ids resolve inside the tree.
        def walk(node, path):
            if node is not root and node["parent_span_id"] not in span_ids:
                fail(f"{path}: parent_span_id {node['parent_span_id']} does not "
                     "resolve within the trace")
            for j, child in enumerate(node.get("children", [])):
                walk(child, f"{path}.children[{j}]")
        walk(root, f"{block}.root")

    return (f"{sampling['sampled_traces']} traces / {sampling['total_requests']} requests "
            f"(1/{sampling['sample_every']}), request fraction sum "
            f"{requests['attribution_fraction_sum']:.4f}, restore P99 "
            f"{restores['p99_total_us']}us over {restores['traces']} restores, "
            f"{len(top)} exemplar trees")


# Host time measured per sweep point (cluster_scale), outside the metadata
# block; every other sweep field is modelled and must match exactly.
HOST_TIME_SWEEP_KEYS = ("wall_seconds", "events_per_sec")


def modelled_payload(path: str) -> dict:
    """The report at `path` without its metadata block and host-time keys."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    doc.pop("metadata", None)
    for entry in doc.get("sweep", []):
        if isinstance(entry, dict):
            for key in HOST_TIME_SWEEP_KEYS:
                entry.pop(key, None)
    return doc


def compare_ignoring_metadata(path_a: str, path_b: str) -> None:
    if modelled_payload(path_a) != modelled_payload(path_b):
        fail(f"payload mismatch between {path_a} and {path_b} "
             "(reports must be identical ignoring metadata and sweep host time)")
    print(f"{path_a} == {path_b} (ignoring metadata and sweep host time)")


FIXTURE_DIR = Path(__file__).resolve().parent / "bench_fixtures"

# (report, other report, whether --compare-ignoring-metadata accepts the pair)
COMPARE_FIXTURES = (
    ("cluster_scale.json", "cluster_scale_host_time.json", True),
    ("cluster_scale.json", "cluster_scale_cold_start.json", False),
)


def self_test() -> int:
    failures = 0
    for name_a, name_b, expect_equal in COMPARE_FIXTURES:
        equal = (modelled_payload(str(FIXTURE_DIR / name_a)) ==
                 modelled_payload(str(FIXTURE_DIR / name_b)))
        verdict = "equal" if equal else "different"
        if equal != expect_equal:
            failures += 1
            print(f"self-test FAIL: {name_a} vs {name_b} compared {verdict}")
        else:
            print(f"self-test ok: {name_a} vs {name_b} -> {verdict}")
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: all {len(COMPARE_FIXTURES)} fixture pairs behaved")
    return 0


def check(path: str, args: argparse.Namespace) -> int:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        fail("missing metadata block")
    require(metadata, "metadata", METADATA_FIELDS)
    for key in ("active_tier", "max_supported_tier"):
        if metadata[key] not in KERNEL_TIERS:
            fail(f"metadata.{key}: unknown kernel tier {metadata[key]!r}")
    if KERNEL_TIERS.index(metadata["active_tier"]) > \
            KERNEL_TIERS.index(metadata["max_supported_tier"]):
        fail("metadata.active_tier is above metadata.max_supported_tier")
    if args.bench and metadata["bench"] != args.bench:
        fail(f"metadata.bench is {metadata['bench']!r}, expected {args.bench!r}")

    detail = "generic bench report"
    if metadata["bench"] == "cluster_scale":
        detail = check_cluster_scale(doc)
    elif metadata["bench"] == "restore_latency":
        detail = check_restore_latency(doc, args)
    elif metadata["bench"] == "trace_analysis":
        detail = check_trace_analysis(doc, args)
    print(f"{path}: OK ({detail})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", nargs="?")
    parser.add_argument("--bench", default="", help="required metadata.bench name")
    parser.add_argument("--min-lazy-p99-speedup", type=float, default=0.0)
    parser.add_argument("--max-attribution-error", type=float, default=0.01,
                        help="cap on |attribution fraction sum - 1| "
                             "(trace_analysis)")
    parser.add_argument("--min-restore-p99-us", type=float, default=0.0,
                        help="floor on the attributed restore P99 "
                             "(trace_analysis)")
    parser.add_argument("--compare-ignoring-metadata", default="",
                        metavar="OTHER", help="second report to diff against")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison against scripts/bench_fixtures/")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.file is None:
        parser.error("FILE is required unless --self-test is given")
    if args.compare_ignoring_metadata:
        compare_ignoring_metadata(args.file, args.compare_ignoring_metadata)
        return 0
    return check(args.file, args)


if __name__ == "__main__":
    sys.exit(main())
