#!/usr/bin/env sh
# loadbench.sh — run the acdload scenario suite against an in-process
# acdserve and fold the reports into a committed BENCH_N.json
# trajectory file. Methodology: docs/serving.md.
#
# Usage:
#   scripts/loadbench.sh [--smoke] [outfile]
#
#   --smoke  seconds-scale scenario variants (CI); default is full mode
#   outfile  target JSON file (default: BENCH_10.json)
#
# Environment:
#   SHARDS     shard counts to run, space-separated (default: "1 4";
#              smoke default: "1 3")
#   SCENARIOS  scenario selector passed to acdload -scenario
#              (default: all)
#   SEED       workload seed (default: 1)
#   COMMIT_WINDOW  journal group-commit window for the scenario
#              servers, e.g. 2ms (default: empty = one commit per request per journal)
#   ROTATE_BYTES  WAL segment rotation size for the scenario servers
#              (default: empty = no rotation)
#   LABEL_SUFFIX  appended to every report label, so a batched run
#              (e.g. -gc) can sit beside the unbatched one in the
#              same BENCH file
#   KEEP_SUITES  set non-empty to keep the per-shard suite JSONs next
#              to the outfile instead of a temp dir
#
# The suite now includes the marketplace scenarios (mixed-fleet,
# backend-outage); their per-backend spend lands in each report's
# Load/<scenario>/scenario metrics. The committed BENCH_10.json adds
# the offline cost-per-F1 comparison on top of the suite:
#   scripts/loadbench.sh BENCH_10.json
#   go run ./cmd/acdbench -exp market -bench-out BENCH_10.json
# (Replication before/after pairs come from scripts/replicabench.sh.)
set -eu

smoke=""
if [ "${1:-}" = "--smoke" ]; then
    smoke="-smoke"
    shift
fi
out="${1:-BENCH_10.json}"
cd "$(dirname "$0")/.."

if [ -n "$smoke" ]; then
    shards_default="1 3"
else
    shards_default="1 4"
fi
shards_list="${SHARDS:-$shards_default}"
scenario="${SCENARIOS:-all}"
seed="${SEED:-1}"
commit_window="${COMMIT_WINDOW:-}"
rotate_bytes="${ROTATE_BYTES:-}"
label_suffix="${LABEL_SUFFIX:-}"

extra=""
if [ -n "$commit_window" ]; then
    extra="$extra -commit-window $commit_window"
fi
if [ -n "$rotate_bytes" ]; then
    extra="$extra -rotate-bytes $rotate_bytes"
fi
if [ -n "$label_suffix" ]; then
    extra="$extra -label-suffix $label_suffix"
fi

suitedir="$(mktemp -d)"
trap 'rm -rf "$suitedir"' EXIT
if [ -n "${KEEP_SUITES:-}" ]; then
    suitedir="$(dirname "$out")"
    trap - EXIT
fi

go build ./cmd/acdload ./internal/tools/benchjson

suites=""
for n in $shards_list; do
    suite="$suitedir/loadsuite${label_suffix}-${n}shard.json"
    echo "== acdload -scenario $scenario -shards $n $smoke$extra" >&2
    # shellcheck disable=SC2086 — extra is a deliberate word list
    go run ./cmd/acdload -scenario "$scenario" -shards "$n" $smoke $extra \
        -seed "$seed" -out "$suite"
    suites="$suites $suite"
done

# shellcheck disable=SC2086 — suites is a deliberate word list
go run ./internal/tools/benchjson -load -out "$out" $suites
echo "loadbench: wrote $out" >&2
