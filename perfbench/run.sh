#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through:
#   bash perfbench/run.sh --workload ring64 --seed 1 --seconds 10 --trace 0
set -eu
cd "$(dirname "$0")/.."
if command -v dune >/dev/null; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
