#!/usr/bin/env bash
# Build the ledger benchmark from source and run it.  Run from the root
# of a TANGO checkout; all arguments go to the benchmark:
#
#   bash ledger/run.sh --workload paper_scan --seed 1 --seconds 20 --trace 0
#
# The build's own output goes to standard error, so the last line of
# standard output is the benchmark's result line.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ledger/dune ]; then
  echo "ledger: run from the root of a TANGO checkout" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi

"${dune[@]}" build --root . ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
