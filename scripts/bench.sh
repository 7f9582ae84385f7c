#!/usr/bin/env sh
# bench.sh — capture the repo's core performance benchmarks into a
# committed BENCH_N.json trajectory file.
#
# Usage:
#   scripts/bench.sh [label] [outfile]
#
#   label    JSON label to store this capture under (default: post)
#   outfile  target JSON file (default: BENCH_3.json)
#
# Environment:
#   BENCHTIME  go test -benchtime value (default: 2s)
#   COUNT      go test -count value; runs are averaged (default: 3)
#   BENCH      go test -bench regex (default: the core hot-path suite)
#   PKG        package(s) to benchmark, space-separated (default: the repo root)
#
# The default benchmark set is the core hot-path suite named in ISSUE 3:
# PC-Pivot, PC-Refine, the pruning-phase Jaccard join, the full-pipeline
# scale run, and the sparse Λ computation. Other suites (e.g. the
# sharded-engine mix feeding BENCH_6.json) select themselves via BENCH
# and PKG. The journal group-commit ladder (events/sec and p99 append
# latency at group sizes 1/16/256 over MemFS and DirFS) runs with:
#
#   BENCH='JournalAppend' PKG=./internal/journal \
#       scripts/bench.sh journal BENCH_8_journal.json
set -eu

label="${1:-post}"
out="${2:-BENCH_3.json}"
cd "$(dirname "$0")/.."

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run NONE \
    -bench "${BENCH:-PCPivot$|PCRefine$|PruningJaccardJoin$|ScaleACD$|Lambda$}" \
    -benchmem -benchtime "${BENCHTIME:-2s}" -count "${COUNT:-3}" ${PKG:-.} | tee "$tmp"

go run ./internal/tools/benchjson -label "$label" -out "$out" < "$tmp"
