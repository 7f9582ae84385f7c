#!/usr/bin/env sh
# loc.sh — print non-test and test Go line counts per package, so a PR
# description or a ROADMAP re-anchor quotes a number anyone can
# reproduce. Lines are `wc -l` lines (comments and blanks included);
# benchmark/ is the repository's benchmark, not the system, and is
# left out.
#
# Usage:
#   scripts/loc.sh [dir...]
#
# With no arguments every package in the module is listed; with
# directories (e.g. internal/incremental internal/shard) only those,
# followed by their total.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
	dirs=$(printf '%s\n' "$@")
else
	dirs=$(find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' |
		sed -e 's|^\./||' -e 's|/[^/]*$||' -e 's|^[^/]*\.go$|.|' | sort -u)
fi

printf '%-36s %9s %9s\n' package non-test test
total_src=0
total_test=0
for d in $dirs; do
	src=$(find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l)
	tst=$(find "$d" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-36s %9d %9d\n' "$d" "$src" "$tst"
	total_src=$((total_src + src))
	total_test=$((total_test + tst))
done
printf '%-36s %9d %9d\n' total "$total_src" "$total_test"
