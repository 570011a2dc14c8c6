#!/usr/bin/env bash
# The command BENCHMARK.json names: build bncgbench from this checkout's
# sources and run it with the given arguments, from the checkout root.
#   bash bench/e2e/run.sh --workload census-sum --seed 3 --seconds 10 --trace 0
# DUNE_CACHE=disabled keeps dune from writing its shared cache outside the
# checkout; --root=. keeps a dune-project above the checkout from being
# taken for the workspace root.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec env DUNE_CACHE=disabled dune exec --root=. --no-print-directory --display=quiet \
  bench/e2e/bncgbench.exe -- "$@"
