#!/usr/bin/env bash
# Build the ledger from this checkout's sources and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . --display quiet ./perfbench/ledger.exe 1>&2
exec ./_build/default/perfbench/ledger.exe "$@"
