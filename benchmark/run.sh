#!/usr/bin/env bash
# Builds the benchmark and the vbrsim CLI from this checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#   bash benchmark/run.sh --workload synth-exact --seed 1 --seconds 25 --trace 0
# Run it from the repository root.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: run from the root of a full checkout" >&2
  exit 2
fi
# Build output stays in the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display=quiet \
  ./benchmark/main.exe ./bin/vbrsim.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
