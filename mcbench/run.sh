#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from, then
# runs it with the given arguments (see mcbench/README.md):
#   bash mcbench/run.sh --workload detail --seed 1 --seconds 20 --trace 0
set -euo pipefail
# Keep every build output inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./mcbench/bin/main.exe 1>&2
exec ./_build/default/mcbench/bin/main.exe "$@"
