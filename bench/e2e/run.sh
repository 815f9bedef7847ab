#!/usr/bin/env bash
# Build the end-to-end benchmark and the morpheus CLI it spawns, then run
# it from the repository root. Every argument goes to e2e.exe, e.g.
#   bash bench/e2e/run.sh --workload serve-light --seed 3 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: not a morpheus checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
dune build --root . bench/e2e/e2e.exe bin/morpheus_cli.exe >&2
exec ./_build/default/bench/e2e/e2e.exe --cli ./_build/default/bin/morpheus_cli.exe "$@"
