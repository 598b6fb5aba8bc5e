"""Repository tooling package: `python3 -m scripts <command>` is the one
entrypoint CI and developers use for the Python-side checks (medes-lint,
bench-JSON validation, Chrome trace validation)."""
