#!/bin/sh
# Builds the benchmark from source and runs one workload. Run it from the
# repository root, e.g.
#   sh perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
# The build stays inside the checkout (_build/, no shared dune cache).
exec dune exec --root . --no-print-directory --display=quiet --cache=disabled \
  ./perfbench/main.exe -- "$@"
