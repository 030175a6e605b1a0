#!/usr/bin/env bash
# Builds the benchmark and the libraries it links from this checkout's
# sources, then runs it from the checkout root:
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare BASE.jsonl CHANGE.jsonl
#   bash perfbench/run.sh selftest
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --profile release --build-dir .bench_build ./perfbench/main.exe >&2
exec ./.bench_build/default/perfbench/main.exe "$@"
