#!/bin/sh
# Builds the f90dc daemon and the benchmark from source, then runs the
# benchmark with this script's arguments.  Run it from the root of an
# f90d checkout, e.g.
#   sh hostbench/run.sh --workload gauss-16 --seed 1 --seconds 10 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "hostbench/run.sh: run from the root of an f90d checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet bin/f90dc.exe hostbench/suite.exe >&2
F90DC=_build/default/bin/f90dc.exe exec _build/default/hostbench/suite.exe "$@"
