#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.
#
#   bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash e2ebench/run.sh --workload all --seed N --seconds S --trace 0|1
#
# The second form runs every workload in turn, one process each.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2ebench: dune-project and lib/ not found; run from a checkout of the repository" >&2
  exit 2
fi
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./e2ebench/main.exe >&2
E2EBENCH_NPROC="$(nproc 2>/dev/null || echo unknown)"
E2EBENCH_COMMIT=unknown
if [ -d .git ]; then
  E2EBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export E2EBENCH_NPROC E2EBENCH_COMMIT
exe=./_build/default/e2ebench/main.exe
args=("$@")
for ((i = 0; i < ${#args[@]} - 1; i++)); do
  if [ "${args[i]}" = --workload ] && [ "${args[i + 1]}" = all ]; then
    status=0
    for w in anf-simon anf-encode-search cnf-suite daemon-mixed; do
      args[i + 1]=$w
      "$exe" "${args[@]}" || status=$?
    done
    exit "$status"
  fi
done
exec "$exe" "$@"
