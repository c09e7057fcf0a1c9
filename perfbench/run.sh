#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload compile-paper --seed 1 --seconds 24 --trace 0
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (dune-project, lib/, bin/)" >&2
  exit 2
fi

# no shared dune cache: the build stays inside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe ./bin/qaoa_serve_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
