"""Single entrypoint for the repository's Python-side checks.

Usage:
    python3 -m scripts lint [ARGS...]              # medes-lint (tree gate)
    python3 -m scripts lint --self-test            # fixture corpus
    python3 -m scripts check-bench-json FILE ...   # bench JSON validator
    python3 -m scripts check-trace-json FILE ...   # Chrome trace validator
    python3 -m scripts perf-pairs --parent DIR --change DIR --workload W \
        --seeds A-B --seconds S                    # alternating perfbench pairs

Each subcommand forwards its remaining arguments verbatim to the underlying
tool, so CI invokes every gate through one stable interface.
"""

import sys

from scripts import check_bench_json, check_trace_json, medes_lint, perf_pairs

COMMANDS = {
    "lint": "medes-lint determinism/invariant analyzer",
    "check-bench-json": "validate a bench JSON report",
    "check-trace-json": "validate a Chrome trace-event JSON export",
    "perf-pairs": "alternating perfbench pairs: parent checkout vs change",
}


def usage() -> str:
    lines = ["usage: python3 -m scripts <command> [args...]", "", "commands:"]
    lines += [f"  {name:<18} {help}" for name, help in COMMANDS.items()]
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print(usage())
        return 0 if len(sys.argv) >= 2 else 2
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "lint":
        return medes_lint.main(rest)
    if command == "check-bench-json":
        sys.argv = [f"{sys.argv[0]} check-bench-json"] + rest
        return check_bench_json.main()
    if command == "check-trace-json":
        return check_trace_json.main(rest)
    if command == "perf-pairs":
        return perf_pairs.main(rest)
    print(f"unknown command: {command}\n\n{usage()}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
